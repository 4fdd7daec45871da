(* Monotonic clock and a log-linear latency histogram.

   Values below 64 ns are exact; above, each power of two is split
   into 64 buckets, so a reported percentile is within 1.6% of the
   true value. A histogram has a single writer (one worker); run.py
   merges the sparse dumps of several cells and reads the percentiles. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sub_bits = 6
let sub = 1 lsl sub_bits
let size = sub + ((63 - sub_bits) * sub)

type t = int array

let create () : t = Array.make size 0

(* floor (log2 v) for v > 0 *)
let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; r := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; r := !r + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; r := !r + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; r := !r + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; r := !r + 2 end;
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let index v =
  if v < sub then if v < 0 then 0 else v
  else
    let b = msb v in
    sub + ((b - sub_bits) * sub) + ((v lsr (b - sub_bits)) land (sub - 1))

(* Bounds [lower, lower + width) of bucket [i], in ns. *)
let bucket i =
  if i < sub then (i, 1)
  else
    let k = (i - sub) / sub and s = i mod sub in
    ((sub + s) lsl k, 1 lsl k)

let add (h : t) v =
  let i = index v in
  Array.unsafe_set h i (Array.unsafe_get h i + 1)

let merge_into (dst : t) (src : t) = Array.iteri (fun i c -> dst.(i) <- dst.(i) + c) src
(* Sparse dump for run.py: [[lower_ns, width_ns, count], ...]. *)
let to_json (h : t) =
  let b = Buffer.create 256 in
  Buffer.add_char b '[';
  let first = ref true in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        let lower, width = bucket i in
        Printf.bprintf b "[%d,%d,%d]" lower width c
      end)
    h;
  Buffer.add_char b ']';
  Buffer.contents b
