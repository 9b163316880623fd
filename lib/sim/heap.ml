type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable size : int }

let create ~cmp = { cmp; data = [||]; size = 0 }

let size h = h.size
let is_empty h = h.size = 0

let grow h x =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let capacity' = if capacity = 0 then 16 else capacity * 2 in
    let data' = Array.make capacity' x in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < h.size && h.cmp h.data.(left) h.data.(!smallest) < 0 then smallest := left;
  if right < h.size && h.cmp h.data.(right) h.data.(!smallest) < 0 then smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let root = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some root
  end

let clear h =
  h.data <- [||];
  h.size <- 0

let filter_in_place h keep =
  let j = ref 0 in
  for i = 0 to h.size - 1 do
    if keep h.data.(i) then begin
      h.data.(!j) <- h.data.(i);
      incr j
    end
  done;
  (* Overwrite the dropped tail so the array stops pinning dead elements.
     When the sweep removed everything there is no live element to fill
     with, so release the whole array — leaving it in place would pin every
     dropped element (and any closure it carries) until the next push. *)
  if !j > 0 then Array.fill h.data !j (h.size - !j) h.data.(0) else h.data <- [||];
  h.size <- !j;
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done
