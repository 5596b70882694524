(* The bit arrays are Bytes, probed with byte-level accessors, and the
   hashes are native-int multiply-xorshift rounds: unlike [int64 array]
   reads and [Int64] arithmetic, none of this boxes, so [add]/[mem]
   allocate nothing. Constants are chosen to fit OCaml's 63-bit immediate
   ints. *)

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
let is_set bits pos =
  Char.code (Bytes.unsafe_get bits (pos lsr 3)) land (1 lsl (pos land 7)) <> 0

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
  || is_set bits pos
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

let mem t key =
  let h1 = hash1 key in
  let h2 = hash2 h1 in
  let mask = t.mask in
  if mask <> 0 && t.k = 4 then
    (* Unrolled for the common power-of-two, k = 4 geometry. Positions
       agree with the incremental probe because [(h1 + i*h2) land mask]
       is congruence-stable under the reduction. Exiting at the first
       clear bit measured faster than testing all four bits branch-free,
       most of all on the G-FIB's scan of every peer filter, where most
       probes miss (bench [gfib-probe]). *)
    let bits = t.bits in
    is_set bits (h1 land mask)
    && is_set bits ((h1 + h2) land mask)
    && is_set bits ((h1 + (2 * h2)) land mask)
    && is_set bits ((h1 + (3 * h2)) land mask)
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
  (* Saturating 8-bit counters, stored sparsely. A position's bit in
     [bloom] is set exactly when its counter is above zero, so [mem] is
     the plain filter's and [clear] zeroes only the bit array. A counter
     of 2..255 also has an entry [(pos lsl 8) lor count] among the first
     [n_over] slots of [over], in no order; a counter of 1 has none. At
     the G-FIB's 128 bits per entry few positions are shared by two
     keys, so [over] stays a few slots long. *)
  type nonrec t = { bloom : t; mutable over : int array; mutable n_over : int }

  let create ?(hashes = 4) ~counters () =
    if counters <= 0 then invalid_arg "Bloom.Counting.create: size must be positive";
    if hashes <= 0 then invalid_arg "Bloom.Counting.create: hashes must be positive";
    { bloom = create ~hashes ~bits:counters (); over = [||]; n_over = 0 }

  (* The slot of [pos] among the first [n] entries of [over], or [n]. *)
  let rec slot over n pos i =
    if i >= n || Array.unsafe_get over i lsr 8 = pos then i
    else slot over n pos (i + 1)

  let push t entry =
    if t.n_over = Array.length t.over then begin
      let over = Array.make (max 8 (2 * t.n_over)) 0 in
      Array.blit t.over 0 over 0 t.n_over;
      t.over <- over
    end;
    t.over.(t.n_over) <- entry;
    t.n_over <- t.n_over + 1

  (* One counter step at [pos], an add if [up] and else a remove. An add
     at 255 is absorbed, and a remove leaves 0 and 255 alone: saturation
     may over-approximate membership, never under-approximate it. *)
  let bump t pos up =
    let bits = t.bloom.bits in
    let b = pos lsr 3 and m = 1 lsl (pos land 7) in
    let byte = Char.code (Bytes.unsafe_get bits b) in
    if byte land m = 0 then begin
      if up then Bytes.unsafe_set bits b (Char.unsafe_chr (byte lor m))
    end
    else begin
      let i = slot t.over t.n_over pos 0 in
      if i = t.n_over then begin
        (* The counter is 1. *)
        if up then push t ((pos lsl 8) lor 2)
        else Bytes.unsafe_set bits b (Char.unsafe_chr (byte land lnot m))
      end
      else begin
        let e = t.over.(i) in
        let c = e land 0xff in
        if c = 255 then ()
        else if up then t.over.(i) <- e + 1
        else if c = 2 then begin
          t.n_over <- t.n_over - 1;
          t.over.(i) <- t.over.(t.n_over)
        end
        else t.over.(i) <- e - 1
      end
    end

  let rec probe_bump t n pos step i up =
    if i < t.bloom.k then begin
      bump t pos up;
      let pos = pos + step in
      let pos = if pos >= n then pos - n else pos in
      probe_bump t n pos step (i + 1) up
    end

  let update t key up =
    let b = t.bloom in
    let h1 = hash1 key in
    probe_bump t b.nbits (reduce h1 b.nbits b.mask)
      (reduce (hash2 h1) b.nbits b.mask)
      0 up

  let add t key = update t key true
  let remove t key = update t key false
  let mem t key = mem t.bloom key

  let clear t =
    Bytes.fill t.bloom.bits 0 (Bytes.length t.bloom.bits) '\000';
    t.n_over <- 0

  let size t = t.bloom.nbits
end
