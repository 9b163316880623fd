type t = int array

let create n =
  if n < 0 then invalid_arg "Version_vector.create: negative length";
  Array.make n 0

let length = Array.length

let get t k =
  if k < 0 || k >= Array.length t then invalid_arg "Version_vector.get: index out of range";
  t.(k)

let set t k v =
  if k < 0 || k >= Array.length t then invalid_arg "Version_vector.set: index out of range";
  if v < 0 then invalid_arg "Version_vector.set: negative version";
  t.(k) <- v

let bump t k =
  set t k (get t k + 1);
  t.(k)

let check_lengths a b name =
  if Array.length a <> Array.length b then invalid_arg ("Version_vector." ^ name ^ ": length mismatch")

let stale_blocks ~mine ~theirs =
  check_lengths mine theirs "stale_blocks";
  let rec collect k acc =
    if k < 0 then acc else collect (k - 1) (if theirs.(k) > mine.(k) then k :: acc else acc)
  in
  collect (Array.length mine - 1) []

let dominates a b =
  check_lengths a b "dominates";
  let rec check k = k >= Array.length a || (a.(k) >= b.(k) && check (k + 1)) in
  check 0

let max_merge a b =
  check_lengths a b "max_merge";
  Array.mapi (fun k va -> Int.max va b.(k)) a

let equal a b = a = b
