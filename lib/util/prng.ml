type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(* FNV-1a over the label, folded into the parent state without advancing it. *)
let named t label =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  { state = mix64 (Int64.logxor t.state !h) }

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias: retry iff [bits] falls in the
     short final segment [2^63 - (2^63 mod bound), 2^63), detected via the
     signed-overflow trick of [bits - v + (bound - 1)] wrapping negative. *)
  let bound64 = Int64.of_int bound in
  let rec loop () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem bits bound64 in
    if Int64.compare (Int64.add (Int64.sub bits v) (Int64.sub bound64 1L)) 0L < 0
    then loop ()
    else Int64.to_int v
  in
  loop ()

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped to [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.compare (bits64 t) 0L < 0

let pareto t ~shape ~scale =
  let u = 1.0 -. float t 1.0 in
  scale /. (u ** (1.0 /. shape))

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct t ~n ~bound =
  assert (n <= bound);
  if n * 3 >= bound then begin
    (* Dense case: shuffle a prefix of the full range. *)
    let a = Array.init bound (fun i -> i) in
    shuffle t a;
    Array.to_list (Array.sub a 0 n)
  end
  else begin
    let seen = Hashtbl.create (2 * n) in
    let rec draw acc k =
      if k = 0 then acc
      else
        let v = int t bound in
        if Hashtbl.mem seen v then draw acc k
        else begin
          Hashtbl.add seen v ();
          draw (v :: acc) (k - 1)
        end
    in
    draw [] n
  end

module Zipf = struct
  type gen = t

  type t = { cdf : float array }

  let create ~n ~alpha =
    assert (n > 0);
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for r = 0 to n - 1 do
      acc := !acc +. (1.0 /. (Float.of_int (r + 1) ** alpha));
      cdf.(r) <- !acc
    done;
    let total = !acc in
    for r = 0 to n - 1 do
      cdf.(r) <- cdf.(r) /. total
    done;
    { cdf }

  let draw t gen =
    let u = float gen 1.0 in
    (* Binary search for the first rank whose cdf exceeds u. *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end
