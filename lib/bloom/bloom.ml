(* The bit (and counter) arrays are Bytes, probed with byte-level
   accessors, and the hashes are native-int multiply-xorshift rounds:
   unlike [int64 array] reads and [Int64] arithmetic, none of this boxes,
   so [add]/[mem] allocate nothing. Constants are chosen to fit OCaml's
   63-bit immediate ints. *)

let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x3C79AC492BA7B653 in
  x lxor (x lsr 31)

(* Two independent hashes for Kirsch–Mitzenmacher double hashing. *)
let hash1 key = mix key land max_int

(* Forced odd so the probe step is coprime with the (64-multiple, hence
   even) table size and the sequence cycles through all positions. One
   multiply-xorshift round over [h1] suffices here: the step only has to
   be decorrelated from the base position, not avalanche on its own. *)
let hash2 h1 =
  let y = h1 * 0x3C79AC492BA7B653 in
  ((y lxor (y lsr 32)) land max_int) lor 1

type t = { bits : Bytes.t; nbits : int; mask : int; k : int }

(* Integer division is the single costliest instruction on the probe
   path, and the sizes that actually occur (the paper's 128 bits/entry
   G-FIB geometry, powers of two) admit a mask instead. [pow2_mask n] is
   [n - 1] when [n] is a power of two, else 0 (falling back to [mod]). *)
let pow2_mask n = if n land (n - 1) = 0 then n - 1 else 0

let reduce h n mask = if mask <> 0 then h land mask else h mod n

let create ?(hashes = 4) ~bits () =
  if bits <= 0 then invalid_arg "Bloom.create: bits must be positive";
  if hashes <= 0 then invalid_arg "Bloom.create: hashes must be positive";
  let nwords = (bits + 63) / 64 in
  let nbits = nwords * 64 in
  {
    bits = Bytes.make (8 * nwords) '\000';
    nbits;
    mask = pow2_mask nbits;
    k = hashes;
  }

(* Bit [i] lives in byte [i lsr 3] at mask [1 lsl (i land 7)] — i.e. the
   byte array is the little-endian image of 64-bit words, which [ones]
   counts a word at a time. Probe indices are always in [0, nbits), so
   byte indices are in bounds for the unsafe accessors. *)

(* Top-level and fully applied, so the probe loops compile to direct
   calls: no closure or tuple is allocated per operation. *)
let rec probe_set bits k n pos step i =
  if i < k then begin
    let b = pos lsr 3 in
    Bytes.unsafe_set bits b
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get bits b) lor (1 lsl (pos land 7))));
    let pos = pos + step in
    let pos = if pos >= n then pos - n else pos in
    probe_set bits k n pos step (i + 1)
  end

let rec probe_mem bits k n pos step i =
  i >= k
  || Char.code (Bytes.unsafe_get bits (pos lsr 3)) land (1 lsl (pos land 7))
     <> 0
     &&
     let pos = pos + step in
     let pos = if pos >= n then pos - n else pos in
     probe_mem bits k n pos step (i + 1)

let add t key =
  let h1 = hash1 key in
  let h2 = hash2 h1 in
  probe_set t.bits t.k t.nbits
    (reduce h1 t.nbits t.mask)
    (reduce h2 t.nbits t.mask)
    0

let bit_at bits pos =
  Char.code (Bytes.unsafe_get bits (pos lsr 3)) lsr (pos land 7) land 1

let mem t key =
  let h1 = hash1 key in
  let h2 = hash2 h1 in
  let mask = t.mask in
  if mask <> 0 && t.k = 4 then
    (* Branchless unroll of the common power-of-two, k = 4 geometry: the
       four loads are independent, so they issue in parallel instead of
       forming a load→branch→load chain, and only the final test can
       mispredict. Positions agree with the incremental probe because
       [(h1 + i*h2) land mask] is congruence-stable under the reduction.
       (Only [mem] is unrolled: [probe_set] stores, where early exit and
       load latency don't apply.) *)
    let bits = t.bits in
    bit_at bits (h1 land mask)
    land bit_at bits ((h1 + h2) land mask)
    land bit_at bits ((h1 + (2 * h2)) land mask)
    land bit_at bits ((h1 + (3 * h2)) land mask)
    <> 0
  else
    probe_mem t.bits t.k t.nbits (reduce h1 t.nbits mask)
      (reduce h2 t.nbits mask) 0

let popcount64 x =
  let rec go acc x =
    if x = 0L then acc else go (acc + 1) Int64.(logand x (sub x 1L))
  in
  go 0 x

let ones t =
  let acc = ref 0 in
  for w = 0 to (Bytes.length t.bits / 8) - 1 do
    acc := !acc + popcount64 (Bytes.get_int64_le t.bits (8 * w))
  done;
  !acc

let fill_ratio t = Float.of_int (ones t) /. Float.of_int t.nbits

let estimated_fp_rate t = fill_ratio t ** Float.of_int t.k

module Counting = struct
  type nonrec t = { counters : Bytes.t; n : int; mask : int; k : int }

  let create ?(hashes = 4) ~counters () =
    if counters <= 0 then invalid_arg "Bloom.Counting.create: size must be positive";
    if hashes <= 0 then invalid_arg "Bloom.Counting.create: hashes must be positive";
    (* Round up to a multiple of 64, as the plain filter does, so [size]
       is the bit count of a plain filter probing the same positions
       ([h mod n] agrees between the two geometries). *)
    let n = (counters + 63) / 64 * 64 in
    { counters = Bytes.make n '\000'; n; mask = pow2_mask n; k = hashes }

  (* Saturating: a counter stuck at 255 is never decremented (it may
     over-approximate, never under-approximate membership). *)
  let rec probe_bump counters k n pos step i delta =
    if i < k then begin
      let v = Char.code (Bytes.unsafe_get counters pos) in
      let v' =
        if delta > 0 then min 255 (v + delta)
        else if v = 255 || v = 0 then v
        else v + delta
      in
      Bytes.unsafe_set counters pos (Char.unsafe_chr v');
      let pos = pos + step in
      let pos = if pos >= n then pos - n else pos in
      probe_bump counters k n pos step (i + 1) delta
    end

  let rec probe_mem counters k n pos step i =
    i >= k
    || Char.code (Bytes.unsafe_get counters pos) > 0
       &&
       let pos = pos + step in
       let pos = if pos >= n then pos - n else pos in
       probe_mem counters k n pos step (i + 1)

  let add t key =
    let h1 = hash1 key in
    let h2 = hash2 h1 in
    probe_bump t.counters t.k t.n (reduce h1 t.n t.mask) (reduce h2 t.n t.mask)
      0 1

  let remove t key =
    let h1 = hash1 key in
    let h2 = hash2 h1 in
    probe_bump t.counters t.k t.n (reduce h1 t.n t.mask) (reduce h2 t.n t.mask)
      0 (-1)

  let mem t key =
    let h1 = hash1 key in
    let h2 = hash2 h1 in
    let mask = t.mask in
    if mask <> 0 && t.k = 4 then
      (* Branchless k = 4 unroll, as in the plain [mem]. All four
         counters must be nonzero; each is at most 255, so the product
         fits an int and is nonzero exactly when all are. *)
      let c = t.counters in
      Char.code (Bytes.unsafe_get c (h1 land mask))
      * Char.code (Bytes.unsafe_get c ((h1 + h2) land mask))
      * Char.code (Bytes.unsafe_get c ((h1 + (2 * h2)) land mask))
      * Char.code (Bytes.unsafe_get c ((h1 + (3 * h2)) land mask))
      <> 0
    else
      probe_mem t.counters t.k t.n (reduce h1 t.n mask) (reduce h2 t.n mask) 0

  let clear t = Bytes.fill t.counters 0 t.n '\000'

  let size t = t.n
end
