type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable bytes : int;
  mutable retransmits : int;
  mutable dup_dropped : int;
  mutable send_failures : int;
  mutable acked : int;
  mutable batches : int;
  mutable stalled : int;
  mutable reorder_dropped : int;
}

let create () =
  {
    sent = 0;
    delivered = 0;
    bytes = 0;
    retransmits = 0;
    dup_dropped = 0;
    send_failures = 0;
    acked = 0;
    batches = 0;
    stalled = 0;
    reorder_dropped = 0;
  }

let reset t =
  t.sent <- 0;
  t.delivered <- 0;
  t.bytes <- 0;
  t.retransmits <- 0;
  t.dup_dropped <- 0;
  t.send_failures <- 0;
  t.acked <- 0;
  t.batches <- 0;
  t.stalled <- 0;
  t.reorder_dropped <- 0

(* Re-export every field through the metrics registry as callback
   counters: sampled at scrape time, zero cost on the send/drain path.
   Creating a second transport with the same label replaces the
   callbacks (last one wins). *)
let register ?registry ~transport t =
  let labels = [ ("transport", transport) ] in
  let field name help read =
    Wdl_obs.Obs.on_collect ?registry ~help ~labels ~kind:`Counter name
      (fun () -> float_of_int (read ()))
  in
  field "wdl_net_sent_total" "Messages handed to the transport" (fun () ->
      t.sent);
  field "wdl_net_delivered_total" "Messages drained by receivers" (fun () ->
      t.delivered);
  field "wdl_net_bytes_total" "Estimated payload bytes sent" (fun () ->
      t.bytes);
  field "wdl_net_retransmits_total"
    "Copies re-sent by a reliability layer after a timeout" (fun () ->
      t.retransmits);
  field "wdl_net_dup_dropped_total"
    "Received copies discarded by receiver-side dedup" (fun () ->
      t.dup_dropped);
  field "wdl_net_send_failures_total"
    "Sends that failed at the transport" (fun () -> t.send_failures);
  field "wdl_net_acked_total"
    "Messages confirmed delivered by a cumulative ack" (fun () -> t.acked);
  field "wdl_net_batches_total"
    "Coalesced per-destination batches handed to the transport" (fun () ->
      t.batches);
  field "wdl_net_window_stalls_total"
    "Sends parked because the per-link send window was full" (fun () ->
      t.stalled);
  field "wdl_net_reorder_dropped_total"
    "Received frames dropped because the reorder buffer was full" (fun () ->
      t.reorder_dropped)

(* Messages per coalesced per-destination flush; one observation per
   send_many call. *)
let batch_hist ?registry ~transport () =
  Wdl_obs.Obs.histogram ?registry
    ~labels:[ ("transport", transport) ]
    ~help:"Messages per coalesced per-destination batch"
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]
    "wdl_net_batch_size"

let frames_rejected ~transport ~reason =
  Wdl_obs.Obs.counter
    ~labels:[ ("transport", transport); ("reason", reason) ]
    ~help:"Received frames discarded without delivery, by reason"
    "wdl_net_frames_rejected_total"

let register_pending ?registry ~transport read =
  Wdl_obs.Obs.on_collect ?registry
    ~help:"Messages queued or in flight in the transport"
    ~labels:[ ("transport", transport) ]
    ~kind:`Gauge "wdl_net_pending" (fun () -> float_of_int (read ()))

let pp ppf t =
  Format.fprintf ppf "sent=%d delivered=%d bytes=%d" t.sent t.delivered t.bytes;
  if t.retransmits > 0 || t.dup_dropped > 0 || t.send_failures > 0 || t.acked > 0
  then
    Format.fprintf ppf " retransmits=%d dup_dropped=%d send_failures=%d acked=%d"
      t.retransmits t.dup_dropped t.send_failures t.acked
