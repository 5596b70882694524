type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

let pop_exn t =
  match pop t with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let clear t = t.size <- 0

let to_sorted_list t =
  let copy = { t with data = Array.sub t.data 0 t.size } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []

module Flat = struct
  type t = {
    mutable time : int array;
    mutable seq : int array;
    mutable payload : int array;
    mutable size : int;
  }

  let create ?(capacity = 16) () =
    let capacity = max capacity 1 in
    {
      time = Array.make capacity 0;
      seq = Array.make capacity 0;
      payload = Array.make capacity 0;
      size = 0;
    }

  let length t = t.size
  let is_empty t = t.size = 0
  let clear t = t.size <- 0

  let grow t =
    let ncap = 2 * Array.length t.time in
    let ntime = Array.make ncap 0
    and nseq = Array.make ncap 0
    and npayload = Array.make ncap 0 in
    Array.blit t.time 0 ntime 0 t.size;
    Array.blit t.seq 0 nseq 0 t.size;
    Array.blit t.payload 0 npayload 0 t.size;
    t.time <- ntime;
    t.seq <- nseq;
    t.payload <- npayload

  let min_time t =
    if t.size = 0 then invalid_arg "Heap.Flat.min_time: empty heap";
    Array.unsafe_get t.time 0

  let min_seq t =
    if t.size = 0 then invalid_arg "Heap.Flat.min_seq: empty heap";
    Array.unsafe_get t.seq 0

  let min_payload t =
    if t.size = 0 then invalid_arg "Heap.Flat.min_payload: empty heap";
    Array.unsafe_get t.payload 0

  (* Hole-bubbling sift: the inserted/relocated element is kept in
     registers while parents (resp. smaller children) slide into the
     hole, halving the array writes of a swap-based sift. All indices
     stay within [0, size), so unsafe accesses are in bounds. *)

  (* The sift loops recurse on the hole index instead of holding it in a
     local [ref]: push/remove_min run once per simulator event
     (hp-engine-step), and a ref cell is a 2-word minor allocation. *)
  let rec sift_up tm sq pl ~time ~seq i =
    if i = 0 then 0
    else
      let parent = (i - 1) / 2 in
      let pt = Array.unsafe_get tm parent in
      if pt > time || (pt = time && Array.unsafe_get sq parent > seq) then begin
        Array.unsafe_set tm i pt;
        Array.unsafe_set sq i (Array.unsafe_get sq parent);
        Array.unsafe_set pl i (Array.unsafe_get pl parent);
        sift_up tm sq pl ~time ~seq parent
      end
      else i

  let push t ~time ~seq ~payload =
    if t.size = Array.length t.time then grow t;
    let tm = t.time and sq = t.seq and pl = t.payload in
    let start = t.size in
    t.size <- t.size + 1;
    let i = sift_up tm sq pl ~time ~seq start in
    Array.unsafe_set tm i time;
    Array.unsafe_set sq i seq;
    Array.unsafe_set pl i payload

  let rec sift_down tm sq pl ~n ~time ~seq i =
    let l = (2 * i) + 1 in
    if l >= n then i
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let lt = Array.unsafe_get tm l and rt = Array.unsafe_get tm r in
          if
            rt < lt
            || (rt = lt && Array.unsafe_get sq r < Array.unsafe_get sq l)
          then r
          else l
        end
        else l
      in
      let ct = Array.unsafe_get tm c in
      if ct < time || (ct = time && Array.unsafe_get sq c < seq) then begin
        Array.unsafe_set tm i ct;
        Array.unsafe_set sq i (Array.unsafe_get sq c);
        Array.unsafe_set pl i (Array.unsafe_get pl c);
        sift_down tm sq pl ~n ~time ~seq c
      end
      else i
    end

  (* Puts (time, seq, payload) in the hole at the root, bubbling the
     hole down toward the leaves. *)
  let fill_root t ~time ~seq ~payload =
    let tm = t.time and sq = t.seq and pl = t.payload in
    let i = sift_down tm sq pl ~n:t.size ~time ~seq 0 in
    Array.unsafe_set tm i time;
    Array.unsafe_set sq i seq;
    Array.unsafe_set pl i payload

  let remove_min t =
    if t.size = 0 then invalid_arg "Heap.Flat.remove_min: empty heap";
    let n = t.size - 1 in
    t.size <- n;
    (* Re-insert the last element at the root. *)
    if n > 0 then
      fill_root t ~time:(Array.unsafe_get t.time n)
        ~seq:(Array.unsafe_get t.seq n)
        ~payload:(Array.unsafe_get t.payload n)

  let replace_min t ~time ~seq ~payload =
    if t.size = 0 then invalid_arg "Heap.Flat.replace_min: empty heap";
    fill_root t ~time ~seq ~payload
end

module Indexed = struct
  type t = {
    mutable heap : int array; (* heap position -> key *)
    pos : int array;          (* key -> heap position, -1 if absent *)
    prio : float array;
    mutable size : int;
  }

  let create n = { heap = Array.make (max n 1) 0; pos = Array.make (max n 1) (-1); prio = Array.make (max n 1) 0.0; size = 0 }

  let mem t k = t.pos.(k) >= 0

  let cardinal t = t.size

  let swap t i j =
    let ki = t.heap.(i) and kj = t.heap.(j) in
    t.heap.(i) <- kj;
    t.heap.(j) <- ki;
    t.pos.(kj) <- i;
    t.pos.(ki) <- j

  (* Max-heap ordering on priorities; ties broken by smaller key for
     determinism. *)
  let before t i j =
    let ki = t.heap.(i) and kj = t.heap.(j) in
    let c = Float.compare t.prio.(kj) t.prio.(ki) in
    if c <> 0 then c < 0 else ki < kj

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < t.size && before t l !best then best := l;
    if r < t.size && before t r !best then best := r;
    if !best <> i then begin
      swap t i !best;
      sift_down t !best
    end

  let insert t k p =
    if mem t k then invalid_arg "Heap.Indexed.insert: key already present";
    t.heap.(t.size) <- k;
    t.pos.(k) <- t.size;
    t.prio.(k) <- p;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let priority t k = if mem t k then t.prio.(k) else raise Not_found

  let adjust t k p =
    if not (mem t k) then insert t k p
    else begin
      let old = t.prio.(k) in
      t.prio.(k) <- p;
      if p > old then sift_up t t.pos.(k) else sift_down t t.pos.(k)
    end

  let pop_max t =
    if t.size = 0 then None
    else begin
      let k = t.heap.(0) in
      let p = t.prio.(k) in
      t.size <- t.size - 1;
      t.pos.(k) <- -1;
      if t.size > 0 then begin
        let last = t.heap.(t.size) in
        t.heap.(0) <- last;
        t.pos.(last) <- 0;
        sift_down t 0
      end;
      Some (k, p)
    end
end
