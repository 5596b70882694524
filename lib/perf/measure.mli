(** Fixed-work benchmark measurement over the monotonic {!Clock}.

    This layer runs a fixed workload a fixed number of repetitions and
    reports the fastest one, which is what machine-readable regression
    tracking needs: the same invocation does the same work every time. *)

type result = {
  name : string;  (** stable target identifier, e.g. ["engine-event"] *)
  ops_per_sec : float;  (** from the fastest repetition *)
  ns_per_op : float;  (** inverse view of [ops_per_sec] *)
  alloc_bytes_per_op : float;
      (** [Gc.allocated_bytes] delta averaged over all repetitions *)
  minor_words_per_op : float;
      (** [Gc.minor_words] delta averaged over all repetitions — the
          quantity the H00x hot-path budgets (HOTPATH_budget) gate *)
  events_fired : int;  (** engine events the workload fired; 0 if n/a *)
  domains : int;  (** OCaml domains the workload ran on; 1 if serial *)
  scaling_efficiency : float option;
      (** ops/sec relative to [domains] x the single-domain run of the
          same workload — [Some (ops_dN / (N * ops_d1))]; [None] for
          serial targets.  Filled in after measurement via
          {!with_scaling} since it needs the sibling run's result. *)
}

val run :
  name:string ->
  ?warmup:int ->
  ?domains:int ->
  reps:int ->
  ops_per_rep:int ->
  ?events:(unit -> int) ->
  (unit -> unit) ->
  result
(** [run ~name ~reps ~ops_per_rep f] times [reps] calls of [f] (after
    [?warmup] untimed calls, default 1), where one call of [f] performs
    [ops_per_rep] operations of the target primitive.  [?events]
    queries the total engine events fired by the workload, sampled once
    after measurement.  [?domains] (default 1) only annotates the
    result — parallelism is the workload's own business.

    @raise Invalid_argument if [reps] or [ops_per_rep] is not positive. *)

val with_scaling : result -> efficiency:float -> result
(** Attach a {!field-scaling_efficiency} computed against the
    single-domain sibling run. *)

val pp_row : Format.formatter -> result -> unit
(** One aligned human-readable table row (no trailing newline). *)
