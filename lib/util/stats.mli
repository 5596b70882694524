(** Online and batch statistics used by the measurement layer. *)

module Online : sig
  (** Streaming mean/variance via Welford's algorithm, with min/max. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two samples. *)

  val min : t -> float
  (** [nan] when empty. *)

  val max : t -> float
  (** [nan] when empty. *)

  val merge : t -> t -> t
  (** Combine two summaries as if their streams were concatenated. *)
end

module Timeseries : sig
  (** Accumulates per-bucket event counts and value sums over a time axis —
      used for the paper's per-2-hour workload and latency series. *)

  type t

  val create : bucket_width:float -> n_buckets:int -> t
  val record : t -> time:float -> float -> unit
  (** Adds a value at [time]; out-of-range times are clamped to the first or
      last bucket. *)

  val record_n : t -> time:float -> n:int -> float -> unit
  (** Adds [n] identical observations at once (bulk accounting for
      packets that are not individually simulated). *)

  val counts : t -> int array
  val sums : t -> float array
  val means : t -> float array
  (** Per-bucket mean value; [nan] for empty buckets. *)

  val rates : t -> float array
  (** Per-bucket event count divided by bucket width (events per time
      unit). *)
end

val percentile_of_sorted : float array -> float -> float
(** [percentile_of_sorted a p] with [a] ascending; linear interpolation. *)
