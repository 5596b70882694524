let percentile_of_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let p = Float.max 0.0 (Float.min 1.0 p) in
    let idx = p *. Float.of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) in
    let hi = min (lo + 1) (n - 1) in
    let frac = idx -. Float.of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end

module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; mn = nan; mx = nan }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. Float.of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.n = 1 then begin
      t.mn <- x;
      t.mx <- x
    end
    else begin
      if x < t.mn then t.mn <- x;
      if x > t.mx then t.mx <- x
    end

  let count t = t.n

  let mean t = if t.n = 0 then 0.0 else t.mean

  let variance t = if t.n < 2 then 0.0 else t.m2 /. Float.of_int (t.n - 1)


  let min t = t.mn

  let max t = t.mx

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. Float.of_int b.n /. Float.of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. Float.of_int a.n *. Float.of_int b.n /. Float.of_int n)
      in
      {
        n;
        mean;
        m2;
        mn = Float.min a.mn b.mn;
        mx = Float.max a.mx b.mx;
      }
    end
end

module Timeseries = struct
  type t = {
    bucket_width : float;
    counts : int array;
    sums : float array;
  }

  let create ~bucket_width ~n_buckets =
    assert (bucket_width > 0.0 && n_buckets > 0);
    { bucket_width; counts = Array.make n_buckets 0; sums = Array.make n_buckets 0.0 }

  let bucket t time =
    let n = Array.length t.counts in
    let i = int_of_float (time /. t.bucket_width) in
    if i < 0 then 0 else if i >= n then n - 1 else i

  let record t ~time v =
    let i = bucket t time in
    t.counts.(i) <- t.counts.(i) + 1;
    t.sums.(i) <- t.sums.(i) +. v

  let record_n t ~time ~n v =
    if n > 0 then begin
      let i = bucket t time in
      t.counts.(i) <- t.counts.(i) + n;
      t.sums.(i) <- t.sums.(i) +. (Float.of_int n *. v)
    end

  let counts t = Array.copy t.counts

  let sums t = Array.copy t.sums

  let means t =
    Array.mapi
      (fun i c -> if c = 0 then nan else t.sums.(i) /. Float.of_int c)
      t.counts

  let rates t =
    Array.map (fun c -> Float.of_int c /. t.bucket_width) t.counts
end
