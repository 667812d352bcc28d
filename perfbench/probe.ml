(* In-memory tracing for the traced run.

   Spans come from two timing decorators the benchmark places around
   public transport calls — one on the [Message] transport handed to
   [System]/[Wepic], one on the byte transport under [Wire.transport] —
   plus the op spans the episode loop records itself. Counters are the ones
   the engine already exports ([Obs] histograms and counters,
   [Peer.stats], [Netstats], [Tcp] connection counts, [Gc]). A
   snapshot of all of them is taken at each op boundary; the delta is
   that op's share. Nothing is written out until the run ends. *)

module Obs = Wdl_obs.Obs
module Transport = Wdl_net.Transport
module Peer = Webdamlog.Peer

let now_us () = Unix.gettimeofday () *. 1e6

(* Span accumulators, in microseconds. Message-level [send]/[drain]
   run inside [System.round]; [pending] runs in the quiescence check
   between rounds. *)
type spans = {
  mutable msg_round : float;
  mutable msg_pending : float;
  mutable byte_send : float;
  mutable byte_drain : float;
  mutable byte_pending : float;
}

let spans =
  { msg_round = 0.; msg_pending = 0.; byte_send = 0.; byte_drain = 0.; byte_pending = 0. }

let timed add f =
  let t0 = now_us () in
  Fun.protect ~finally:(fun () -> add (now_us () -. t0)) f

let decorate ~send ~drain ~pending (tr : 'a Transport.t) =
  {
    tr with
    Transport.send = (fun ~src ~dst x -> timed send (fun () -> tr.Transport.send ~src ~dst x));
    send_many = (fun ~dst items -> timed send (fun () -> tr.Transport.send_many ~dst items));
    drain = (fun name -> timed drain (fun () -> tr.Transport.drain name));
    pending = (fun () -> timed pending tr.Transport.pending);
  }

let message_level tr =
  let round d = spans.msg_round <- spans.msg_round +. d in
  decorate tr ~send:round ~drain:round
    ~pending:(fun d -> spans.msg_pending <- spans.msg_pending +. d)

let byte_level tr =
  decorate tr
    ~send:(fun d -> spans.byte_send <- spans.byte_send +. d)
    ~drain:(fun d -> spans.byte_drain <- spans.byte_drain +. d)
    ~pending:(fun d -> spans.byte_pending <- spans.byte_pending +. d)

(* What a snapshot can see of the system under test. *)
type view = {
  peers : Peer.t array;
  rounds : unit -> int;
  tcp : (Wdl_net.Netstats.t * Wdl_net.Tcp.control) list;
}

(* Raw counter slots, read at every op boundary. *)
let c_round_us = 0
let c_fix_us = 1
let c_fix_iters = 2
let c_journal_us = 3
let c_journal_entries = 4
let c_rounds = 5
let c_stages = 6
let c_derivations = 7
let c_msgs_sent = 8
let c_deleg_installed = 9
let c_deleg_retracted = 10
let c_delta_stages = 11
let c_fastpath = 12
let c_replans = 13
let c_index_builds = 14
let c_intensional = 15
let c_alloc_words = 16
let c_major = 17
let c_msg_round = 18
let c_msg_pending = 19
let c_byte_send = 20
let c_byte_drain = 21
let c_byte_pending = 22
let c_wire_bytes = 23
let c_wire_frames = 24
let c_conns_opened = 25
let c_send_failures = 26
let c_retransmits = 27
let n_counters = 28

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let peer_hist name p = Obs.histogram ~labels:[ ("peer", Peer.name p) ] name

let sum_hists hs = Array.fold_left (fun acc h -> acc +. Obs.histogram_sum h) 0. hs

let intensional_tuples p =
  Wdl_store.Database.fold
    (fun info acc ->
      if info.Wdl_store.Database.kind = Wdl_syntax.Decl.Intensional then
        acc + Wdl_store.Relation.cardinal info.Wdl_store.Database.data
      else acc)
    (Peer.database p) 0

(* Returns a function filling a counter array from the live system. *)
let reader view =
  let stage_h = Array.map (peer_hist "wdl_eval_stage_duration_microseconds") view.peers in
  let iter_h = Array.map (peer_hist "wdl_eval_iterations") view.peers in
  let round_h = Obs.histogram "wdl_system_round_duration_microseconds" in
  let journal_h = Obs.histogram "wdl_journal_append_duration_microseconds" in
  let journal_c = Obs.counter ~labels:[ ("op", "append") ] "wdl_journal_entries_total" in
  let index_c = Obs.counter "wdl_store_index_builds_total" in
  let peer_field name =
    Array.fold_left
      (fun acc p -> acc +. Obs.read_one ~labels:[ ("peer", Peer.name p) ] name)
      0. view.peers
  in
  let tcp f = List.fold_left (fun acc x -> acc +. float_of_int (f x)) 0. view.tcp in
  fun (c : float array) ->
    let stats = Array.map Peer.stats view.peers in
    let st f = Array.fold_left (fun acc s -> acc +. float_of_int (f s)) 0. stats in
    c.(c_round_us) <- Obs.histogram_sum round_h;
    c.(c_fix_us) <- sum_hists stage_h;
    c.(c_fix_iters) <- sum_hists iter_h;
    c.(c_journal_us) <- Obs.histogram_sum journal_h;
    c.(c_journal_entries) <- float_of_int (Obs.counter_value journal_c);
    c.(c_rounds) <- float_of_int (view.rounds ());
    c.(c_stages) <- st (fun s -> s.Peer.stages);
    c.(c_derivations) <- st (fun s -> s.Peer.derivations);
    c.(c_msgs_sent) <- st (fun s -> s.Peer.messages_sent);
    c.(c_deleg_installed) <- st (fun s -> s.Peer.delegations_installed);
    c.(c_deleg_retracted) <- st (fun s -> s.Peer.delegations_retracted);
    c.(c_delta_stages) <- peer_field "wdl_eval_delta_stages_total";
    c.(c_fastpath) <- peer_field "wdl_eval_stage_fastpath_total";
    c.(c_replans) <- peer_field "wdl_eval_replans_total";
    c.(c_index_builds) <- float_of_int (Obs.counter_value index_c);
    c.(c_intensional) <-
      float_of_int (Array.fold_left (fun acc p -> acc + intensional_tuples p) 0 view.peers);
    c.(c_alloc_words) <- allocated_words ();
    c.(c_major) <- float_of_int (Gc.quick_stat ()).Gc.major_collections;
    c.(c_msg_round) <- spans.msg_round;
    c.(c_msg_pending) <- spans.msg_pending;
    c.(c_byte_send) <- spans.byte_send;
    c.(c_byte_drain) <- spans.byte_drain;
    c.(c_byte_pending) <- spans.byte_pending;
    c.(c_wire_bytes) <- tcp (fun (s, _) -> s.Wdl_net.Netstats.bytes);
    c.(c_wire_frames) <- tcp (fun (s, _) -> s.Wdl_net.Netstats.sent);
    c.(c_conns_opened) <- tcp (fun (_, ctl) -> Wdl_net.Tcp.conns_opened ctl);
    c.(c_send_failures) <- tcp (fun (s, _) -> s.Wdl_net.Netstats.send_failures);
    c.(c_retransmits) <- tcp (fun (s, _) -> s.Wdl_net.Netstats.retransmits)

(* One traced op: its spans (µs) and the counter deltas it contains. *)
type record = {
  read : bool;
  op_us : float;  (** the whole op span *)
  call_us : float;  (** the user call: a write, or [Peer.ask] for a read *)
  settle_us : float;  (** the run to quiescence after a write *)
  call_journal_us : float;  (** journal appends inside the user call *)
  d : float array;  (** counter deltas over the op span *)
}
