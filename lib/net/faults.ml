type corruption = {
  bit_flip : float;
  truncate : float;
  garbage_prefix : float;
  garbage_suffix : float;
  splice : float;
}

let no_corruption =
  { bit_flip = 0.0; truncate = 0.0; garbage_prefix = 0.0; garbage_suffix = 0.0; splice = 0.0 }

let corruption_is_trivial c =
  c.bit_flip = 0.0 && c.truncate = 0.0 && c.garbage_prefix = 0.0 && c.garbage_suffix = 0.0
  && c.splice = 0.0

type profile = {
  drop : float;
  duplicate : float;
  reorder : float;
  jitter : Util.Dist.t;
  extra_delay : float;
  corruption : corruption;
}

let pristine =
  {
    drop = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    jitter = Util.Dist.Constant 0.0;
    extra_delay = 0.0;
    corruption = no_corruption;
  }

let persistent_corruptor = { pristine with corruption = { no_corruption with bit_flip = 1.0 } }

(* Constant 0.0 is the only jitter distribution that provably never
   perturbs a delivery; anything else makes the profile non-pristine. *)
let jitter_is_trivial = function Util.Dist.Constant 0.0 -> true | _ -> false

let is_pristine p =
  (* The jitter term was historically omitted, so a jitter-only profile
     was classified pristine and silently injected nothing; every new
     knob — corruption included — must appear here the day it is born. *)
  p.drop = 0.0 && p.duplicate = 0.0 && p.reorder = 0.0 && p.extra_delay = 0.0
  && jitter_is_trivial p.jitter
  && corruption_is_trivial p.corruption

let validate_profile p =
  let prob what x =
    if x < 0.0 || x > 1.0 || Float.is_nan x then
      Error (Printf.sprintf "%s must be a probability in [0, 1]" what)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = prob "drop" p.drop in
  let* () = prob "duplicate" p.duplicate in
  let* () = prob "reorder" p.reorder in
  let* _ = Result.map_error (fun e -> "bad jitter distribution: " ^ e) (Util.Dist.validate p.jitter) in
  let* () = prob "bit_flip" p.corruption.bit_flip in
  let* () = prob "truncate" p.corruption.truncate in
  let* () = prob "garbage_prefix" p.corruption.garbage_prefix in
  let* () = prob "garbage_suffix" p.corruption.garbage_suffix in
  let* () = prob "splice" p.corruption.splice in
  if p.extra_delay < 0.0 || Float.is_nan p.extra_delay then Error "extra_delay must be non-negative"
  else Ok p

let make ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0) ?(jitter = Util.Dist.Constant 0.0)
    ?(extra_delay = 0.0) ?(corruption = no_corruption) () =
  validate_profile { drop; duplicate; reorder; jitter; extra_delay; corruption }

let make_exn ?drop ?duplicate ?reorder ?jitter ?extra_delay ?corruption () =
  match make ?drop ?duplicate ?reorder ?jitter ?extra_delay ?corruption () with
  | Ok p -> p
  | Error msg -> invalid_arg ("Faults.make: " ^ msg)

type counters = {
  mutable drops : int;
  mutable duplicates : int;
  mutable reorders : int;
  mutable delayed : int;
  mutable jittered : int;
  mutable bit_flips : int;
  mutable truncates : int;
  mutable garbage_prefixed : int;
  mutable garbage_suffixed : int;
  mutable splices : int;
  mutable corrupted : int; (* deliveries with >= 1 byte-level mutation *)
}

type t = {
  rng : Util.Prng.t;
  default : profile;
  links : (int * int, profile) Hashtbl.t;
  counters : counters;
  last_frames : (int * int, Bytes.t) Hashtbl.t; (* splice partners, per link *)
  (* Sticky: set once any link of this injector is given non-trivial
     corruption, never cleared by a heal — the network then keeps
     carrying encoded frames for the rest of the run. *)
  mutable corrupting : bool;
}

let create ~rng profile =
  match validate_profile profile with
  | Error msg -> invalid_arg ("Faults.create: " ^ msg)
  | Ok default ->
      {
        rng;
        default;
        links = Hashtbl.create 8;
        counters =
          {
            drops = 0;
            duplicates = 0;
            reorders = 0;
            delayed = 0;
            jittered = 0;
            bit_flips = 0;
            truncates = 0;
            garbage_prefixed = 0;
            garbage_suffixed = 0;
            splices = 0;
            corrupted = 0;
          };
        last_frames = Hashtbl.create 8;
        corrupting = not (corruption_is_trivial default.corruption);
      }

let of_seed ~seed profile = create ~rng:(Util.Prng.create seed) profile

let set_link t ~from ~dst profile =
  match validate_profile profile with
  | Error msg -> invalid_arg ("Faults.set_link: " ^ msg)
  | Ok p ->
      if not (corruption_is_trivial p.corruption) then t.corrupting <- true;
      Hashtbl.replace t.links (from, dst) p

let link_profile t ~from ~dst =
  match Hashtbl.find_opt t.links (from, dst) with Some p -> p | None -> t.default

let default_profile t = t.default
let corrupting t = t.corrupting

(* A fault plan never perturbs the traffic counters: transmissions are
   accounted at send time, exactly as Section 5 counts them; faults only
   decide what the wire then does to the already-charged message. *)
let plan t ~from ~dst =
  let p = link_profile t ~from ~dst in
  if is_pristine p then [ 0.0 ]
  else begin
    let c = t.counters in
    (* Draw the three uniforms unconditionally so the fault stream of a link
       does not depend on which knobs are zero — only on the seed. *)
    let u_drop = Util.Prng.float t.rng in
    let u_dup = Util.Prng.float t.rng in
    let u_reorder = Util.Prng.float t.rng in
    if u_drop < p.drop then begin
      c.drops <- c.drops + 1;
      []
    end
    else begin
      let base =
        if p.extra_delay > 0.0 then begin
          c.delayed <- c.delayed + 1;
          p.extra_delay
        end
        else 0.0
      in
      (* Jitter perturbs {e every} delivery of a non-trivial profile (it
         used to fire only on a reorder, so a jitter-only profile was a
         silent no-op); the reorder knob additionally defers the delivery
         by a second, independent draw so later sends can overtake it. *)
      let jitter_draw () =
        if jitter_is_trivial p.jitter then 0.0
        else begin
          c.jittered <- c.jittered + 1;
          Util.Dist.sample p.jitter t.rng
        end
      in
      let reorder_kick u =
        if u < p.reorder then begin
          c.reorders <- c.reorders + 1;
          Util.Dist.sample p.jitter t.rng
        end
        else 0.0
      in
      let first = base +. jitter_draw () +. reorder_kick u_reorder in
      if u_dup < p.duplicate then begin
        c.duplicates <- c.duplicates + 1;
        [ first; base +. jitter_draw () +. reorder_kick (Util.Prng.float t.rng) ]
      end
      else [ first ]
    end
  end

(* Byte-level wire damage, applied at ingress to the encoded frame of one
   delivery.  Applied kinds in a fixed order — splice, truncate, garbage
   prefix, garbage suffix, bit flip — each guaranteed to actually change
   the byte string when it fires (a truncate removes >= 1 byte, garbage
   adds >= 1 byte, a flip toggles one bit), except a splice of two
   identical frames, which can reproduce the original and then counts as
   an (attempted) corruption the decoder legitimately survives.  A splice
   can also reproduce the link's previous frame whole (cut where the two
   tails agree): that decodes too, and replays the old message in place
   of this one. *)
let corrupt t ~from ~dst bytes =
  let p = link_profile t ~from ~dst in
  let c = p.corruption in
  if corruption_is_trivial c then (bytes, false)
  else begin
    let k = t.counters in
    (* Draw the five uniforms unconditionally so the corruption stream of
       a link does not depend on which knobs are zero — same discipline
       as [plan]. *)
    let u_splice = Util.Prng.float t.rng in
    let u_trunc = Util.Prng.float t.rng in
    let u_pre = Util.Prng.float t.rng in
    let u_suf = Util.Prng.float t.rng in
    let u_flip = Util.Prng.float t.rng in
    let prev = Hashtbl.find_opt t.last_frames (from, dst) in
    Hashtbl.replace t.last_frames (from, dst) (Bytes.copy bytes);
    let buf = ref bytes in
    let mutated = ref false in
    (if u_splice < c.splice then
       match prev with
       | Some prev when Bytes.length prev > 0 && Bytes.length !buf > 0 ->
           (* head of the previous frame on this link + tail of this one:
              two sends run together at an arbitrary cut *)
           let head = 1 + Util.Prng.int t.rng (Bytes.length prev) in
           let cut = Util.Prng.int t.rng (Bytes.length !buf + 1) in
           buf :=
             Bytes.cat (Bytes.sub prev 0 head) (Bytes.sub !buf cut (Bytes.length !buf - cut));
           mutated := true;
           k.splices <- k.splices + 1
       | _ -> () (* no partner yet: nothing to splice with *));
    (if u_trunc < c.truncate && Bytes.length !buf >= 2 then begin
       let keep = 1 + Util.Prng.int t.rng (Bytes.length !buf - 1) in
       buf := Bytes.sub !buf 0 keep;
       mutated := true;
       k.truncates <- k.truncates + 1
     end);
    let garbage n =
      let g = Bytes.create n in
      for i = 0 to n - 1 do
        Bytes.set g i (Char.chr (Util.Prng.int t.rng 256))
      done;
      g
    in
    (if u_pre < c.garbage_prefix then begin
       buf := Bytes.cat (garbage (1 + Util.Prng.int t.rng 8)) !buf;
       mutated := true;
       k.garbage_prefixed <- k.garbage_prefixed + 1
     end);
    (if u_suf < c.garbage_suffix then begin
       buf := Bytes.cat !buf (garbage (1 + Util.Prng.int t.rng 8));
       mutated := true;
       k.garbage_suffixed <- k.garbage_suffixed + 1
     end);
    (if u_flip < c.bit_flip && Bytes.length !buf > 0 then begin
       (* the only in-place kind: copy first if [buf] still aliases the
          caller's pristine frame (duplicates share the encoded buffer) *)
       if not !mutated then buf := Bytes.copy !buf;
       let i = Util.Prng.int t.rng (Bytes.length !buf) in
       let bit = Util.Prng.int t.rng 8 in
       Bytes.set !buf i (Char.chr (Char.code (Bytes.get !buf i) lxor (1 lsl bit)));
       mutated := true;
       k.bit_flips <- k.bit_flips + 1
     end);
    if !mutated then k.corrupted <- k.corrupted + 1;
    (!buf, !mutated)
  end

let counters t = t.counters

let total_injected t =
  let c = t.counters in
  c.drops + c.duplicates + c.reorders + c.delayed + c.jittered + c.bit_flips + c.truncates
  + c.garbage_prefixed + c.garbage_suffixed + c.splices
