(** Re-export of {!Lazyctrl_util.Json}, kept for the [benchmark/] harness,
    which names [Lazyctrl_perf.Json]; everything else uses the util module
    directly. *)

include module type of struct
  include Lazyctrl_util.Json
end
