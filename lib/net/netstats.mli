(** Message-level counters kept by every transport. *)

type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable bytes : int;  (** estimated payload bytes, when a sizer is set *)
  mutable retransmits : int;
      (** copies re-sent by a reliability layer after a timeout *)
  mutable dup_dropped : int;
      (** received copies discarded by receiver-side dedup *)
  mutable send_failures : int;
      (** sends that failed at the transport (connect/write errors,
          links given up on) — the message may still be retried *)
  mutable acked : int;
      (** messages confirmed delivered by a cumulative ack *)
  mutable batches : int;
      (** coalesced per-destination batches handed to the transport
          (one [send_many] call = one batch) *)
  mutable stalled : int;
      (** sends parked in the overflow queue because the per-link send
          window was full (block-sender backpressure) *)
  mutable reorder_dropped : int;
      (** received frames discarded because they landed beyond the
          receiver's bounded reorder buffer — the sender retransmits *)
}

val create : unit -> t
val reset : t -> unit

val register : ?registry:Wdl_obs.Obs.t -> transport:string -> t -> unit
(** Re-export every field through the metrics registry as
    [wdl_net_*_total{transport=...}] callback counters, sampled at
    scrape time — nothing is added to the send/drain path.  A second
    transport registering the same label replaces the callbacks. *)

val register_pending :
  ?registry:Wdl_obs.Obs.t -> transport:string -> (unit -> int) -> unit
(** Export a queue-depth reader as the gauge
    [wdl_net_pending{transport=...}]. *)

val batch_hist :
  ?registry:Wdl_obs.Obs.t ->
  transport:string ->
  unit ->
  Wdl_obs.Obs.histogram
(** The [wdl_net_batch_size{transport=...}] histogram: messages per
    coalesced per-destination batch, one observation per [send_many]. *)

val frames_rejected : transport:string -> reason:string -> Wdl_obs.Obs.counter
(** The [wdl_net_frames_rejected_total{transport=...,reason=...}]
    counter: received frames discarded without delivery. *)

val pp : Format.formatter -> t -> unit
(** Prints the base counters; the reliability counters are appended
    only when at least one of them is nonzero, so transports that never
    retransmit keep their historical rendering. *)
