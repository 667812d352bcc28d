(* The WebdamLog end-to-end benchmark.

   One process, one thread, one client in a closed loop: each op starts
   only after the previous one returned (a write returns once the
   system is quiescent again). An episode sets a system up, runs the
   seeded op stream through it and checks it; episodes repeat until
   [--seconds] have been measured. With [--trace 0] the run reports the
   end-to-end metrics; with [--trace 1] traced episodes alternate with
   untraced ones and the run reports the per-layer metrics.

   Usage: wdlperf --workload tc_closure|wepic_tcp|wepic_inmem --seed N
            --seconds S --trace 0|1 [--size full|small] [--state-dir D] *)

open Wdl_syntax
module Peer = Webdamlog.Peer
module System = Webdamlog.System
module Wire = Webdamlog.Wire
module Persist = Webdamlog.Persist
module Message = Webdamlog.Message
module Transport = Wdl_net.Transport
module Tcp = Wdl_net.Tcp
module Netstats = Wdl_net.Netstats
module Wepic = Wdl_wepic.Wepic

let now () = Unix.gettimeofday ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let must what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* {1 Systems under test} *)

type env = {
  write : Gen.op -> unit;  (** the user action; raises on error *)
  settle : unit -> (int, string) result;  (** run to quiescence *)
  ask : Gen.op -> (Value.t list list, string) result;
  view : Probe.view;
  checks : unit -> string list;  (** end-of-episode checks: failures *)
  digest : unit -> string;
  close : unit -> unit;
}

let answer rows =
  List.map
    (List.map (function
      | Value.Int i -> i
      | Value.String s -> Gen.index_of s
      | v -> failwith ("unexpected value " ^ Value.to_string v)))
    rows
  |> List.sort_uniq compare

(* Every relation of every peer, in a canonical order. *)
let digest_peers peers =
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      List.iter
        (fun rel ->
          List.iter
            (fun f -> Buffer.add_string b (Fact.to_string f); Buffer.add_char b '\n')
            (Peer.query p rel))
        (List.sort compare (Peer.relation_names p)))
    (List.sort (fun a b -> compare (Peer.name a) (Peer.name b)) peers);
  Digest.to_hex (Digest.string (Buffer.contents b))

let inmem ~traced =
  if traced then
    Some (Probe.message_level (Wdl_net.Inmem.create ~sizer:Message.size ()))
  else None

let tc_program =
  {|
  ext edge@g(src, dst);
  int tc@g(src, dst);
  tc@g($x, $y) :- edge@g($x, $y);
  tc@g($x, $z) :- tc@g($x, $y), edge@g($y, $z);
  |}

let edge (a, b) = Fact.make ~rel:"edge" ~peer:"g" [ Value.Int a; Value.Int b ]

let tc_env ~traced base =
  let sys = System.create ?transport:(inmem ~traced) ~drop_unknown:true () in
  let g = System.add_peer sys "g" in
  must "tc program" (Peer.load_string g tc_program);
  List.iter (fun e -> must "base edge" (Peer.insert g (edge e))) base;
  ignore (must "initial run" (System.run sys));
  let ask = function
    | Gen.Reach x ->
      Result.map
        (fun a -> a.Peer.rows)
        (Peer.ask g (Printf.sprintf "q@g($y) :- tc@g(%d, $y)" x))
    | _ -> invalid_arg "tc ask"
  in
  {
    write =
      (function
      | Gen.Add_edge (a, b) -> must "insert" (Peer.insert g (edge (a, b)))
      | _ -> invalid_arg "tc write");
    settle = (fun () -> System.run sys);
    ask;
    view = { Probe.peers = [| g |]; rounds = (fun () -> System.rounds sys); tcp = [] };
    checks = (fun () -> []);
    digest = (fun () -> digest_peers [ g ]);
    close = ignore;
  }

(* Two loopback endpoints in this process, standing for two machines:
   "cloud" serves sigmod and SigmodFB, "laptop" serves every attendee.
   Each message leaves from its source's endpoint (a round's batch is
   split per source machine) through [Wire.transport], so frames
   between the machines cross a socket and attendee-to-attendee frames
   short-circuit inside the laptop endpoint. [in_flight] counts frames
   sent but not yet drained by either endpoint. *)
type machines = {
  transport : Message.t Transport.t;
  in_flight : unit -> int;
  tcp : (Netstats.t * Tcp.control) list;
  close : unit -> unit;
}

let two_machines ~traced attendees =
  let cloud, cctl = Tcp.create () and laptop, lctl = Tcp.create () in
  let at ctl = { Tcp.host = "127.0.0.1"; port = Tcp.port ctl } in
  let on_cloud n = n = Wepic.sigmod_peer_name || n = Wepic.fb_peer_name in
  List.iter
    (fun p -> Tcp.register lctl ~peer:p (at cctl))
    [ Wepic.sigmod_peer_name; Wepic.fb_peer_name ];
  List.iter (fun a -> Tcp.register cctl ~peer:a (at lctl)) attendees;
  let wire bytes = Wire.transport (if traced then Probe.byte_level bytes else bytes) in
  let cloud_w = wire cloud and laptop_w = wire laptop in
  let host n = if on_cloud n then cloud_w else laptop_w in
  let stats = [ cloud.stats (); laptop.stats () ] in
  let count f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let in_flight () = count (fun s -> s.Netstats.sent) - count (fun s -> s.Netstats.delivered) in
  let send_many ~dst items =
    let from_cloud, from_laptop = List.partition (fun (src, _) -> on_cloud src) items in
    if from_cloud <> [] then cloud_w.Transport.send_many ~dst from_cloud;
    if from_laptop <> [] then laptop_w.Transport.send_many ~dst from_laptop
  in
  let merged () =
    let s = Netstats.create () in
    s.Netstats.sent <- count (fun s -> s.Netstats.sent);
    s.Netstats.delivered <- count (fun s -> s.Netstats.delivered);
    s.Netstats.bytes <- count (fun s -> s.Netstats.bytes);
    s
  in
  {
    transport =
      {
        Transport.send = (fun ~src ~dst m -> (host src).Transport.send ~src ~dst m);
        send_many;
        drain = (fun n -> (host n).Transport.drain n);
        pending = (fun () -> cloud_w.Transport.pending () + laptop_w.Transport.pending ());
        advance = (fun _ -> ());
        now = (fun () -> 0.);
        stats = merged;
      };
    in_flight;
    tcp = List.combine stats [ cctl; lctl ];
    close = (fun () -> Tcp.close cctl; Tcp.close lctl);
  }

(* [Wepic.run] stops when no peer has work and the transports hold
   nothing deliverable; a frame still inside the kernel between the two
   endpoints is invisible to that check. Wait for it (polling the
   endpoints reads the sockets) and run again. The polls go through
   [tr], the transport handed to [Wepic]. *)
let rec settle_tcp w (m : machines) tr total =
  match Wepic.run w with
  | Error e -> Error e
  | Ok rounds ->
    let deadline = now () +. 5. in
    while m.in_flight () > 0 && tr.Transport.pending () = 0 && now () < deadline do
      Unix.sleepf 20e-6
    done;
    if m.in_flight () = 0 then Ok (total + rounds)
    else if now () >= deadline then Error "frames still in flight after 5 s"
    else settle_tcp w m tr (total + rounds)

let wepic_ask w op =
  Result.map (fun a -> a.Peer.rows)
  @@
  match op with
  | Gen.Frame v ->
    Peer.ask (Wepic.attendee w v)
      (Printf.sprintf "q@%s($id, $o) :- attendeePictures@%s($id, $n, $o, $d)" v v)
  | Gen.Rated v ->
    Peer.ask (Wepic.attendee w v)
      (Printf.sprintf "q@%s($id, $r) :- ratedPictures@%s($id, $n, $o, $r)" v v)
  | Gen.Best o ->
    Peer.ask (Wepic.attendee w o)
      (Printf.sprintf "q@%s($id, $r) :- bestRating@%s($id, $r)" o o)
  | _ -> invalid_arg "wepic ask"

let wepic_write w = function
  | Gen.Upload { owner; id; name; data } ->
    Wepic.upload_picture w ~attendee:owner ~id ~name ~data
  | Gen.Select { viewer; target } -> Wepic.select_attendee w ~viewer ~attendee:target
  | Gen.Deselect { viewer; target } -> Wepic.deselect_attendee w ~viewer ~attendee:target
  | Gen.Rate { owner; id; rating } -> Wepic.rate w ~rater:owner ~owner ~id ~rating
  | Gen.Tag { owner; id; who } -> Wepic.tag w ~owner ~id ~who
  | Gen.Comment { owner; id; author; text } -> Wepic.comment w ~owner ~id ~author ~text
  | Gen.Select_picture { viewer; owner; id; name } ->
    Wepic.select_picture w ~viewer ~name ~id ~owner
  | _ -> invalid_arg "wepic write"

let extensional p =
  Wdl_store.Database.fold
    (fun info acc ->
      if info.Wdl_store.Database.kind = Decl.Extensional then
        (info.Wdl_store.Database.name, Peer.query p info.Wdl_store.Database.name) :: acc
      else acc)
    (Peer.database p) []
  |> List.sort compare

(* After the measured phase: every journaled attendee, rebuilt from
   checkpoint + journal, must hold exactly the live peer's extensional
   relations — every acknowledged write survives a restart. *)
let durability w dir_of =
  List.filter_map
    (fun a ->
      match Persist.recover ~dir:(dir_of a) ~fallback_name:a () with
      | Error e -> Some (Printf.sprintf "recover %s: %s" a e)
      | Ok p ->
        Option.iter Wdl_store.Journal.close (Peer.journal p);
        if extensional p = extensional (Wepic.attendee w a) then None
        else Some (Printf.sprintf "recovered %s differs from the live peer" a))
    (Wepic.attendees w)

let wepic_env ~traced ~tcp ~state ~seed (size : Gen.wepic_size) =
  let attendees = List.init size.attendees (fun i -> Gen.attendee (i + 1)) in
  let machines = if tcp then Some (two_machines ~traced attendees) else None in
  let transport =
    match machines with
    | Some m -> Some (if traced then Probe.message_level m.transport else m.transport)
    | None -> inmem ~traced
  in
  let w = Wepic.create ?transport () in
  let settle () =
    match machines, transport with
    | Some m, Some tr -> settle_tcp w m tr 0
    | _ -> Wepic.run w
  in
  Wdl_wepic.Workload.populate w (Gen.spec size ~seed);
  ignore (must "initial run" (settle ()));
  let dir_of a = Filename.concat state a in
  if tcp then
    List.iter
      (fun a ->
        let p = Wepic.attendee w a in
        Persist.attach p ~dir:(dir_of a);
        Persist.checkpoint p ~dir:(dir_of a))
      attendees;
  let sys = Wepic.system w in
  {
    write = wepic_write w;
    settle;
    ask = wepic_ask w;
    view =
      { Probe.peers = Array.of_list (System.peers sys);
        rounds = (fun () -> System.rounds sys);
        tcp = (match machines with Some m -> m.tcp | None -> []) };
    checks = (fun () -> if tcp then durability w dir_of else []);
    digest = (fun () -> digest_peers (System.peers sys));
    close =
      (fun () ->
        Option.iter (fun m -> m.close ()) machines;
        if tcp then
          List.iter
            (fun a -> Option.iter Wdl_store.Journal.close (Peer.journal (Wepic.attendee w a)))
            attendees);
  }

(* {1 Workloads} *)

type workload = {
  name : string;
  stream : Gen.stream;
  setup : traced:bool -> state:string -> env;
  reference_digest : (unit -> string) option;
      (** untimed replay on another transport the final state must match *)
}

let workload ~name ~seed ~small =
  match name with
  | "tc_closure" ->
    let base, stream = Gen.tc ~seed (if small then Gen.tc_small else Gen.tc_full) in
    { name; stream; setup = (fun ~traced ~state:_ -> tc_env ~traced base);
      reference_digest = None }
  | "wepic_tcp" | "wepic_inmem" ->
    let tcp = name = "wepic_tcp" in
    let size =
      if small then Gen.wepic_small
      else if tcp then Gen.wepic_tcp_full
      else Gen.wepic_inmem_full
    in
    let stream = Gen.wepic ~seed size in
    let setup ~traced ~state = wepic_env ~traced ~tcp ~state ~seed size in
    let reference_digest =
      if not tcp then None
      else
        Some
          (fun () ->
            let env = wepic_env ~traced:false ~tcp:false ~state:"" ~seed size in
            Array.iter
              (fun op ->
                if not (Gen.is_read op) then begin
                  env.write op;
                  ignore (env.settle ())
                end)
              stream.Gen.ops;
            env.digest ())
    in
    { name; stream; setup; reference_digest }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* {1 Episodes} *)

(* One episode's figures; see [over] for how a run combines them. *)
type ep = {
  setup_time : float;
  latency : float array;  (** op span in seconds, by position in the stream *)
  alloc : float;  (** words allocated inside op spans *)
  update_rounds : int;
  update_bytes : float;
  peak_words : int;  (** largest major heap seen at an op boundary *)
}

type totals = {
  mutable eps : ep list;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable records : Probe.record list;
  mutable gauges : (float * float) list;  (** interned values, store bytes *)
  mutable digests : string list;
}

let totals () =
  { eps = []; attempted = 0; failed = 0; failures = []; records = []; gauges = [];
    digests = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.failures < 5 then t.failures <- msg :: t.failures

let wire_bytes (v : Probe.view) =
  List.fold_left (fun acc (s, _) -> acc +. float_of_int s.Netstats.bytes) 0. v.Probe.tcp

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let episode t wl ~traced ~state =
  rm_rf state;
  mkdir_p state;
  Gc.compact ();
  let t0 = now () in
  let env = wl.setup ~traced ~state in
  let setup_time = now () -. t0 in
  let latency = Array.make (Array.length wl.stream.Gen.ops) 0. and alloc = ref 0. in
  let update_rounds = ref 0 and update_bytes = ref 0. and peak = ref (heap_words ()) in
  let snap = Probe.reader env.view in
  let before = Array.make Probe.n_counters 0. and after = Array.make Probe.n_counters 0. in
  let journal_h = Wdl_obs.Obs.histogram "wdl_journal_append_duration_microseconds" in
  let journal () = if traced then Wdl_obs.Obs.histogram_sum journal_h else 0. in
  Array.iteri
    (fun i op ->
      t.attempted <- t.attempted + 1;
      if traced then snap before;
      let read = Gen.is_read op in
      let a0 = Probe.allocated_words () in
      let rounds0 = env.view.Probe.rounds () and bytes0 = wire_bytes env.view in
      let j0 = journal () in
      let s0 = now () in
      let outcome, s1, s2, j1 =
        if read then begin
          let r = try env.ask op with e -> Error (Printexc.to_string e) in
          let s1 = now () in
          (Some r, s1, s1, j0)
        end
        else begin
          let ok = try Ok (env.write op) with e -> Error (Printexc.to_string e) in
          let s1 = now () in
          let j1 = journal () in
          let settled = Result.bind ok env.settle in
          ((match settled with Ok _ -> None | Error e -> Some (Error e)), s1, now (), j1)
        end
      in
      let a1 = Probe.allocated_words () in
      if traced then snap after;
      let span = s2 -. s0 in
      latency.(i) <- span;
      alloc := !alloc +. (a1 -. a0);
      peak := max !peak (heap_words ());
      if not read then begin
        update_rounds := !update_rounds + (env.view.Probe.rounds () - rounds0);
        update_bytes := !update_bytes +. (wire_bytes env.view -. bytes0)
      end;
      (match outcome, wl.stream.Gen.expected.(i) with
      | Some (Error e), _ -> fail t (Printf.sprintf "op %d: %s" i e)
      | Some (Ok rows), Some expected ->
        (match answer rows with
        | got when got = expected -> ()
        | _ -> fail t (Printf.sprintf "op %d: wrong answer" i)
        | exception Failure e -> fail t (Printf.sprintf "op %d: %s" i e))
      | _ -> ());
      if traced then
        t.records <-
          { Probe.read; op_us = span *. 1e6; call_us = (s1 -. s0) *. 1e6;
            settle_us = (s2 -. s1) *. 1e6; call_journal_us = j1 -. j0;
            d = Array.init Probe.n_counters (fun k -> after.(k) -. before.(k)) }
          :: t.records)
    wl.stream.Gen.ops;
  if traced then
    t.gauges <-
      Array.fold_left
        (fun (n, b) p ->
          let db = Peer.database p in
          ( n +. float_of_int (Wdl_store.Database.interned_count db),
            b +. float_of_int (Wdl_store.Database.memory_bytes db) ))
        (0., 0.) env.view.Probe.peers
      :: t.gauges;
  let checks = env.checks () in
  t.attempted <- t.attempted + 1;
  if checks <> [] then fail t (String.concat "; " checks);
  if wl.reference_digest <> None then t.digests <- env.digest () :: t.digests;
  env.close ();
  rm_rf state;
  Printf.printf "episode %d (%s): set-up %.4f s, %d ops in %.3f s\n"
    (List.length t.eps) (if traced then "traced" else "plain") setup_time
    (Array.length latency) (Array.fold_left ( +. ) 0. latency);
  t.eps <-
    { setup_time; latency; alloc = !alloc; update_rounds = !update_rounds;
      update_bytes = !update_bytes; peak_words = !peak }
    :: t.eps

(* {1 Metrics} *)

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5
let per n x = if n = 0 then 0. else x /. float_of_int n

(* Every figure is taken per episode, over all of its ops, and a run
   reports the median over its episodes: a stall, a late frame or a GC
   slice counts wherever it lands, and a slow stretch of the host moves
   a minority of the episodes. *)
let over t f = median (List.map f t.eps)

let ops_per_s t =
  over t (fun e -> float_of_int (Array.length e.latency) /. Array.fold_left ( +. ) 0. e.latency)

(* name, unit, value *)
type metric = string * string * float

let end_to_end t (stream : Gen.stream) : metric list =
  let kind read e =
    List.filteri (fun i _ -> Gen.is_read stream.Gen.ops.(i) = read) (Array.to_list e.latency)
  in
  let ms read p = over t (fun e -> percentile (kind read e) p *. 1e3) in
  let n_ops = Array.length stream.Gen.ops in
  let n_updates = Array.fold_left (fun n op -> if Gen.is_read op then n else n + 1) 0 stream.Gen.ops in
  [
    ("setup_s", "s", over t (fun e -> e.setup_time));
    ("ops_per_s", "1/s", ops_per_s t);
    ("update_p50_ms", "ms", ms false 0.5);
    ("update_p99_ms", "ms", ms false 0.99);
    ("read_p50_ms", "ms", ms true 0.5);
    ("read_p99_ms", "ms", ms true 0.99);
    ("alloc_words_per_op", "words", over t (fun e -> per n_ops e.alloc));
    (* OCaml 5.1 never shrinks the major heap, so later episodes start
       from earlier ones' high-water mark: the first episode's peak is
       the smallest, and the only one that is about one episode. *)
    ("peak_heap_mb", "MB",
     List.fold_left
       (fun acc e -> Float.min acc (float_of_int (e.peak_words * (Sys.word_size / 8)) /. 1e6))
       infinity t.eps);
    ("rounds_per_update", "count", over t (fun e -> per n_updates (float_of_int e.update_rounds)));
  ]

(* Reported beside the end-to-end metrics, not in the result object:
   both are 0 on some workloads by design. *)
let extras t (stream : Gen.stream) ~attempted ~failed : metric list =
  let n_updates = Array.fold_left (fun n op -> if Gen.is_read op then n else n + 1) 0 stream.Gen.ops in
  [
    ("wire_bytes_per_update", "B", over t (fun e -> per n_updates e.update_bytes));
    ("failed_frac", "ratio", per attempted (float_of_int failed));
  ]

(* The per-layer metrics, and the two parts of [trace.unattributed_frac]
   for the report. *)
let per_layer t ~untraced_ops_per_s ~traced_ops_per_s : metric list * metric list =
  let open Probe in
  let recs = t.records in
  let n = List.length recs in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. recs in
  let sum_w f = sum (fun r -> if r.read then 0. else f r) in
  let mean f = per n (sum f) in
  let c k r = r.d.(k) in
  let s f = mean f /. 1e6 in
  let tcp = List.exists (fun r -> r.d.(c_wire_frames) > 0.) recs in
  let bytes_spans r = c c_byte_send r +. c c_byte_drain r +. c c_byte_pending r in
  let msg_spans r = c c_msg_round r +. c c_msg_pending r in
  let journal_in_rounds r = c c_journal_us r -. r.call_journal_us in
  (* A parent span minus its measured children, and how far the children
     overran it: an overrun means the attribution is broken. *)
  let excess total parts = Float.max 0. (parts -. total) in
  let rest total parts = Float.max 0. (total -. parts) in
  let round_children r = c c_fix_us r +. c c_msg_round r +. journal_in_rounds r in
  let stage_self r = if r.read then 0. else rest (c c_round_us r) (round_children r) in
  let write_self r = if r.read then 0. else rest r.call_us r.call_journal_us in
  (* The spans and histograms that measure an op directly, at its top
     level: the user call, then the rounds and the quiescence checks of
     the settle. What they leave of the op span is unattributed (wrapper
     sync, the run loop itself, TCP polls): [wepic.sync_s] is that part
     of an update. *)
  let measured r = r.call_us +. if r.read then 0. else c c_round_us r +. c c_msg_pending r in
  let unattributed r = rest r.op_us (measured r) in
  let overrun r =
    if r.read then excess r.call_us (c c_fix_us r)
    else
      excess r.call_us r.call_journal_us +. excess (c c_round_us r) (round_children r)
      +. excess (msg_spans r) (bytes_spans r) +. excess r.op_us (measured r)
  in
  let updates = List.length (List.filter (fun r -> not r.read) recs) in
  let reads = n - updates in
  let total = sum (fun r -> r.op_us) in
  let gauge f = per (List.length t.gauges) (List.fold_left (fun acc g -> acc +. f g) 0. t.gauges) in
  let growth = sum_w (fun r -> Float.max 0. (c c_intensional r)) in
  let derivations = sum_w (c c_derivations) in
  ( [
    ("fixpoint.s", "s/op", s (c c_fix_us));
    ("fixpoint.iterations", "count/op", mean (c c_fix_iters));
    ("fixpoint.delta_stages", "count/op", mean (c c_delta_stages));
    ("fixpoint.fastpath_stages", "count/op", mean (c c_fastpath));
    ("fixpoint.replans", "count/op", mean (c c_replans));
    ("fixpoint.novel_ratio", "ratio", if derivations = 0. then 0. else growth /. derivations);
    ("store.interned_values", "count", gauge fst);
    ("store.memory_bytes", "B", gauge snd);
    ("store.index_builds", "count/op", mean (c c_index_builds));
    ("gc.minor_words", "words/op", mean (c c_alloc_words));
    ("gc.major_collections", "count/op", mean (c c_major));
    ("peer.ask_s", "s/read", per reads (sum (fun r -> if r.read then r.call_us else 0.)) /. 1e6);
    ("peer.write_s", "s/op", s write_self);
    ("peer.stage_self_s", "s/op", s stage_self);
    ("peer.stages", "count/op", mean (c c_stages));
    ("peer.derivations", "count/op", mean (c c_derivations));
    ("peer.messages_sent", "count/op", mean (c c_msgs_sent));
    ("peer.delegations_installed", "count/op", mean (c c_deleg_installed));
    ("peer.delegations_retracted", "count/op", mean (c c_deleg_retracted));
    ("system.rounds", "count/op", mean (c c_rounds));
    ("system.round_s", "s/op", s (c c_round_us));
    ("system.transport_s", "s/op", if tcp then 0. else s msg_spans);
    ("wepic.sync_s", "s/op", s (fun r -> if r.read then 0. else unattributed r));
    ("wire.codec_s", "s/op", if tcp then s (fun r -> msg_spans r -. bytes_spans r) else 0.);
    ("wire.bytes", "B/op", mean (c c_wire_bytes));
    ("wire.frames", "count/op", mean (c c_wire_frames));
    ("wire.bytes_per_update", "B/update", per updates (sum_w (c c_wire_bytes)));
    ("tcp.send_s", "s/op", s (c c_byte_send));
    ("tcp.drain_s", "s/op", s (fun r -> c c_byte_drain r +. c c_byte_pending r));
    ("tcp.conns_opened", "count/op", mean (c c_conns_opened));
    ("tcp.send_failures", "count/op", mean (c c_send_failures));
    ("tcp.retransmits", "count/op", mean (c c_retransmits));
    ("journal.append_s", "s/op", s (c c_journal_us));
    ("journal.entries", "count/op", mean (c c_journal_entries));
    ("trace.overhead_frac", "ratio", 1. -. (traced_ops_per_s /. untraced_ops_per_s));
    ("trace.unattributed_frac", "ratio", (sum unattributed +. sum overrun) /. total);
  ],
    [ ("unmeasured part", "ratio", sum unattributed /. total);
      ("overrun part", "ratio", sum overrun /. total) ] )

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let result_json ~correct ~attempted ~failed (metrics : metric list) =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (json_number v) u)
          metrics))

(* {1 A run} *)

type outcome = { correct : bool; attempted : int; failed : int; metrics : metric list }

let run ~name ~seed ~seconds ~trace ~small ~state =
  let wl = workload ~name ~seed ~small in
  let plain = totals () and traced = totals () in
  let start = now () in
  let k = ref 0 in
  (* whole episodes until the time is up; a traced run needs one of each *)
  while now () -. start < seconds || !k = 0 || (trace && !k < 2) do
    let tr = trace && !k mod 2 = 1 in
    episode (if tr then traced else plain) wl ~traced:tr
      ~state:(Filename.concat state (string_of_int !k));
    incr k
  done;
  let all = [ plain; traced ] in
  let attempted = List.fold_left (fun acc (t : totals) -> acc + t.attempted) 0 all in
  let failed = ref (List.fold_left (fun acc (t : totals) -> acc + t.failed) 0 all) in
  let failures = ref (List.concat_map (fun t -> t.failures) all) in
  (match wl.reference_digest with
  | None -> ()
  | Some replay ->
    let expected = replay () in
    List.iter
      (fun d ->
        if d <> expected then begin
          incr failed;
          failures := "final digest differs from the in-memory replay" :: !failures
        end)
      (List.concat_map (fun t -> t.digests) all));
  let attempted = attempted + List.length (List.concat_map (fun t -> t.digests) all) in
  List.iter (fun f -> Printf.eprintf "failure: %s\n" f) !failures;
  let metrics, report =
    if trace then
      per_layer traced ~untraced_ops_per_s:(ops_per_s plain) ~traced_ops_per_s:(ops_per_s traced)
    else (end_to_end plain wl.stream, extras plain wl.stream ~attempted ~failed:!failed)
  in
  let reads = Array.fold_left (fun n op -> if Gen.is_read op then n + 1 else n) 0 wl.stream.Gen.ops in
  Printf.printf
    "workload %s seed %d: %d episodes of %d updates + %d reads (closed loop, one client); \
     every figure is the median over %d untraced episodes of that episode's figure\n"
    name seed !k (Array.length wl.stream.Gen.ops - reads) reads (List.length plain.eps);
  Printf.printf "ocaml %s, %d usable hardware threads, WDL_DOMAINS effective %d\n"
    Sys.ocaml_version (Domain.recommended_domain_count ()) (Wdl_eval.Parallel.default_domains ());
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.6g %s\n" n v u) (metrics @ report);
  { correct = !failed = 0; attempted; failed = !failed; metrics }

let workloads = [ "tc_closure"; "wepic_tcp"; "wepic_inmem" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let small = ref false and state = ref "perfbench/_state" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--size", Arg.String (fun s -> small := s = "small"), " full|small");
      ("--state-dir", Arg.Set_string state, " journal directory");
    ]
    (fun a -> raise (Arg.Bad a))
    "wdlperf";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end
  else begin
    let state = Filename.concat !state (string_of_int (Unix.getpid ())) in
    let o = run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~small:!small ~state in
    rm_rf state;
    print_endline
      (result_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics)
  end
