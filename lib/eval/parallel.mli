val default_domains : unit -> int
(** Always [1]: evaluation is sequential. The sharded multi-domain
    fixpoint that this knob once selected was removed because it ran
    slower than the sequential engine on every measured workload; the
    function stays only because the benchmark harness prints it. *)
