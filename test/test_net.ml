open Wdl_net

let tc name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.check Alcotest.bool msg true
let check_int msg = Alcotest.check Alcotest.int msg

let rejected_count reason =
  Wdl_obs.Obs.counter_value (Netstats.frames_rejected ~transport:"tcp" ~reason)

let suite =
  [
    tc "inmem: immediate FIFO delivery" (fun () ->
        let t = Inmem.create () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        t.Transport.send ~src:"a" ~dst:"b" 2;
        Alcotest.check (Alcotest.list Alcotest.int) "fifo" [ 1; 2 ]
          (t.Transport.drain "b");
        check_int "empty" 0 (List.length (t.Transport.drain "b")));
    tc "inmem: per-destination inboxes" (fun () ->
        let t = Inmem.create () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        t.Transport.send ~src:"a" ~dst:"c" 2;
        check_int "b" 1 (List.length (t.Transport.drain "b"));
        check_int "c" 1 (List.length (t.Transport.drain "c")));
    tc "inmem: stats and sizer" (fun () ->
        let t = Inmem.create ~sizer:(fun n -> n) () in
        t.Transport.send ~src:"a" ~dst:"b" 10;
        t.Transport.send ~src:"a" ~dst:"b" 5;
        let s = t.Transport.stats () in
        check_int "sent" 2 s.Netstats.sent;
        check_int "bytes" 15 s.Netstats.bytes;
        ignore (t.Transport.drain "b");
        check_int "delivered" 2 (t.Transport.stats ()).Netstats.delivered);
    tc "inmem: pending counts undrained messages" (fun () ->
        let t = Inmem.create () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        check_int "one" 1 (t.Transport.pending ());
        ignore (t.Transport.drain "b");
        check_int "zero" 0 (t.Transport.pending ()));
    tc "simnet: nothing delivered before latency elapses" (fun () ->
        let t = Simnet.create ~jitter:0. ~base_latency:2.0 () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        check_int "t0" 0 (List.length (t.Transport.drain "b"));
        t.Transport.advance 1.0;
        check_int "t1" 0 (List.length (t.Transport.drain "b"));
        t.Transport.advance 1.0;
        check_int "t2" 1 (List.length (t.Transport.drain "b")));
    tc "simnet: reflexive links are instantaneous" (fun () ->
        let t = Simnet.create ~base_latency:5.0 () in
        t.Transport.send ~src:"a" ~dst:"a" 1;
        check_int "self" 1 (List.length (t.Transport.drain "a")));
    tc "simnet: deterministic under a fixed seed" (fun () ->
        let run () =
          let t = Simnet.create ~seed:7 ~base_latency:1.0 ~jitter:0.5 () in
          for i = 0 to 9 do
            t.Transport.send ~src:"a" ~dst:"b" i
          done;
          t.Transport.advance 1.5;
          t.Transport.drain "b"
        in
        check_bool "same order" (run () = run ()));
    tc "simnet: per-link latency function" (fun () ->
        let t =
          Simnet.create ~jitter:0.
            ~latency:(fun ~src ~dst:_ -> if src = "far" then 10. else 1.)
            ()
        in
        t.Transport.send ~src:"far" ~dst:"b" 1;
        t.Transport.send ~src:"near" ~dst:"b" 2;
        t.Transport.advance 1.0;
        Alcotest.check (Alcotest.list Alcotest.int) "near only" [ 2 ]
          (t.Transport.drain "b");
        t.Transport.advance 9.0;
        Alcotest.check (Alcotest.list Alcotest.int) "far arrives" [ 1 ]
          (t.Transport.drain "b"));
    tc "simnet: equal stamps preserve send order" (fun () ->
        let t = Simnet.create ~jitter:0. ~base_latency:1.0 () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        t.Transport.send ~src:"a" ~dst:"b" 2;
        t.Transport.advance 1.0;
        Alcotest.check (Alcotest.list Alcotest.int) "fifo" [ 1; 2 ]
          (t.Transport.drain "b"));
    tc "simnet: loss drops copies and counts them" (fun () ->
        let t, ctl = Simnet.create_with_control ~jitter:0. ~loss:1.0 () in
        for i = 1 to 5 do
          t.Transport.send ~src:"a" ~dst:"b" i
        done;
        t.Transport.advance 1.0;
        check_int "all lost" 0 (List.length (t.Transport.drain "b"));
        check_int "counted" 5 (Simnet.messages_lost ctl);
        check_int "sent still counted" 5 (t.Transport.stats ()).Netstats.sent);
    tc "simnet: partial loss is deterministic under the seed" (fun () ->
        let run () =
          let t = Simnet.create ~seed:9 ~jitter:0. ~loss:0.5 () in
          for i = 1 to 20 do
            t.Transport.send ~src:"a" ~dst:"b" i
          done;
          t.Transport.advance 1.0;
          t.Transport.drain "b"
        in
        let got = run () in
        check_bool "some lost" (List.length got < 20);
        check_bool "some survive" (List.length got > 0);
        check_bool "replayable" (got = run ()));
    tc "simnet: a crashed peer loses its inbox and all traffic" (fun () ->
        let t, ctl = Simnet.create_with_control ~jitter:0. () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        Simnet.crash ctl "b";
        check_bool "crashed" (Simnet.crashed ctl "b");
        t.Transport.send ~src:"a" ~dst:"b" 2;  (* dropped: b is down *)
        t.Transport.send ~src:"b" ~dst:"a" 3;  (* dropped: b cannot send *)
        t.Transport.advance 1.0;
        check_int "nothing at b" 0 (List.length (t.Transport.drain "b"));
        check_int "nothing from b" 0 (List.length (t.Transport.drain "a"));
        check_int "inbox + both directions lost" 3 (Simnet.messages_lost ctl);
        Simnet.restart ctl "b";
        t.Transport.send ~src:"a" ~dst:"b" 4;
        t.Transport.advance 1.0;
        Alcotest.check (Alcotest.list Alcotest.int) "delivery resumes" [ 4 ]
          (t.Transport.drain "b"));
    tc "tcp: unreachable peer does not raise; send is parked and counted"
      (fun () ->
        (* Grab a port that is certainly closed by binding and
           releasing it. *)
        let dead_t, dead_c = Tcp.create () in
        let dead_port = Tcp.port dead_c in
        ignore dead_t;
        Tcp.close dead_c;
        let t, c = Tcp.create ~connect_timeout:0.5 ~retry_delay:0.01 () in
        Tcp.register c ~peer:"gone"
          { Tcp.host = "127.0.0.1"; port = dead_port };
        t.Transport.send ~src:"a" ~dst:"gone" "hello?";  (* must not raise *)
        check_bool "failure counted"
          ((t.Transport.stats ()).Netstats.send_failures >= 1);
        check_int "parked for retry" 1 (Tcp.parked_sends c);
        check_bool "pending includes parked" (t.Transport.pending () >= 1);
        Tcp.close c);
    tc "send_many: batches deliver in order and are counted (all transports)"
      (fun () ->
        let check_transport label (t : int Transport.t) advance =
          t.Transport.send_many ~dst:"b" [ ("a", 1); ("c", 2); ("a", 3) ];
          t.Transport.send_many ~dst:"b" [];
          advance t;
          Alcotest.check
            (Alcotest.list Alcotest.int)
            (label ^ ": in order") [ 1; 2; 3 ] (t.Transport.drain "b");
          check_int (label ^ ": batches counted") 2
            (t.Transport.stats ()).Netstats.batches;
          check_int (label ^ ": messages counted") 3
            (t.Transport.stats ()).Netstats.sent
        in
        check_transport "inmem" (Inmem.create ()) (fun _ -> ());
        check_transport "simnet"
          (Simnet.create ~jitter:0. ())
          (fun t -> t.Transport.advance 1.0));
    tc "unregistered destination: inmem/simnet keep it drainable, not lost"
      (fun () ->
        (* In-process transports have no registry: a name nobody drained
           yet still accumulates and delivers on its first drain. *)
        let ti : int Transport.t = Inmem.create () in
        ti.Transport.send ~src:"a" ~dst:"nobody" 1;
        check_int "inmem pending" 1 (ti.Transport.pending ());
        check_int "inmem delivers" 1 (List.length (ti.Transport.drain "nobody"));
        let ts : int Transport.t = Simnet.create ~jitter:0. () in
        ts.Transport.send ~src:"a" ~dst:"nobody" 1;
        ts.Transport.advance 1.0;
        check_int "simnet delivers" 1 (List.length (ts.Transport.drain "nobody")));
    tc "tcp: unregistered remote destination dead-letters, no silent queue"
      (fun () ->
        (* Misconfigured peer name: neither registered nor ever drained
           here. It must not sit in a local queue forever inflating
           [pending] — it parks, retries, and becomes a dead letter. *)
        let t, c = Tcp.create ~retry_delay:0.005 ~max_retries:2 () in
        t.Transport.send ~src:"a" ~dst:"no such peer" "hello?";
        check_int "parked, not silently queued" 1 (Tcp.parked_sends c);
        check_bool "pending visible" (t.Transport.pending () >= 1);
        (* Let the backoff deadlines pass, pumping via [pending]. *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Tcp.parked_sends c > 0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01;
          ignore (t.Transport.pending ())
        done;
        check_int "gave up" 0 (Tcp.parked_sends c);
        check_int "dead letter counted" 1 (Tcp.dead_letters c);
        check_bool "failure surfaced"
          ((t.Transport.stats ()).Netstats.send_failures >= 1);
        check_int "nothing left pending" 0 (t.Transport.pending ());
        Tcp.close c);
    tc "tcp: parking a few thousand sends stays fast (heap, not list)"
      (fun () ->
        let t, c = Tcp.create () in
        let n = 3000 in
        let t0 = Unix.gettimeofday () in
        for i = 1 to n do
          t.Transport.send ~src:"a" ~dst:"late" (string_of_int i)
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        check_int "all parked" n (Tcp.parked_sends c);
        check_bool "no quadratic blowup" (elapsed < 2.0);
        (* The destination turns out to live here: its first drain
           flushes the whole backlog, in send order. *)
        let got = t.Transport.drain "late" in
        check_int "all flushed" n (List.length got);
        check_bool "in order"
          (got = List.init n (fun i -> string_of_int (i + 1)));
        check_int "heap empty" 0 (Tcp.parked_sends c);
        Tcp.close c);
    tc "tcp: read_all is bounded; a stalled writer only loses its frame"
      (fun () ->
        Wdl_obs.Obs.clear Wdl_obs.Obs.default;
        let t, c = Tcp.create ~read_timeout:0.15 () in
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port c));
        (* Half a frame, and the write side stays open forever. *)
        ignore (Unix.write_substring sock "5\n" 0 2);
        let t0 = Unix.gettimeofday () in
        let got = t.Transport.drain "whoever" in
        let elapsed = Unix.gettimeofday () -. t0 in
        check_int "partial frame dropped" 0 (List.length got);
        check_bool "returned promptly, not hung" (elapsed < 2.0);
        (* Pump past [read_timeout]: the silent connection is dropped
           and counted. *)
        let deadline = Unix.gettimeofday () +. 2.0 in
        while rejected_count "stalled" = 0 && Unix.gettimeofday () < deadline do
          ignore (t.Transport.pending ());
          Unix.sleepf 0.01
        done;
        Unix.close sock;
        check_int "stall counted" 1 (rejected_count "stalled");
        check_int "not counted as truncated" 0 (rejected_count "truncated");
        (* The transport still works afterwards. *)
        t.Transport.send ~src:"a" ~dst:"b" "still alive";
        Alcotest.check (Alcotest.list Alcotest.string) "subsequent frames ok"
          [ "still alive" ] (t.Transport.drain "b");
        Tcp.close c);
    tc "tcp: a stream that ends mid-frame loses that frame, counted"
      (fun () ->
        Wdl_obs.Obs.clear Wdl_obs.Obs.default;
        let t, c = Tcp.create () in
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port c));
        (* One whole frame to "b", then half of the next, then EOF. *)
        let bytes = "1\n2\nbok1\n5\nbhal" in
        ignore (Unix.write_substring sock bytes 0 (String.length bytes));
        Unix.shutdown sock Unix.SHUTDOWN_SEND;
        let got = ref [] in
        let deadline = Unix.gettimeofday () +. 2.0 in
        while
          rejected_count "truncated" = 0 && Unix.gettimeofday () < deadline
        do
          got := !got @ t.Transport.drain "b";
          Unix.sleepf 0.005
        done;
        got := !got @ t.Transport.drain "b";
        Unix.close sock;
        Alcotest.check (Alcotest.list Alcotest.string)
          "whole frame delivered, partial one dropped" [ "ok" ] !got;
        check_int "truncation counted" 1 (rejected_count "truncated");
        check_int "not counted as stalled" 0 (rejected_count "stalled");
        (* A clean close between frames loses nothing and counts
           nothing. *)
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port c));
        ignore (Unix.write_substring sock "1\n2\nbk2" 0 7);
        Unix.close sock;
        let got = ref [] in
        let deadline = Unix.gettimeofday () +. 2.0 in
        while !got = [] && Unix.gettimeofday () < deadline do
          got := !got @ t.Transport.drain "b";
          Unix.sleepf 0.005
        done;
        ignore (t.Transport.pending ());
        Alcotest.check (Alcotest.list Alcotest.string) "clean close delivers"
          [ "k2" ] !got;
        check_int "clean close not counted" 1 (rejected_count "truncated");
        Tcp.close c);
    tc "tcp: oversize and garbage headers sever the connection, counted"
      (fun () ->
        Wdl_obs.Obs.clear Wdl_obs.Obs.default;
        let t, c = Tcp.create () in
        (* One valid frame to "b", then a bad header, on a raw socket. *)
        let valid = "1\n2\nbok" in
        let attack ~bad ~reason =
          let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect sock
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port c));
          let bytes = valid ^ bad in
          ignore (Unix.write_substring sock bytes 0 (String.length bytes));
          let got = ref [] in
          let deadline = Unix.gettimeofday () +. 2.0 in
          while
            (!got = [] || rejected_count reason = 0)
            && Unix.gettimeofday () < deadline
          do
            got := !got @ t.Transport.drain "b";
            Unix.sleepf 0.005
          done;
          Alcotest.check (Alcotest.list Alcotest.string)
            (reason ^ ": frame before the bad header delivered") [ "ok" ] !got;
          (* Severed: the next read sees end-of-stream or a reset. *)
          let severed =
            match Unix.select [ sock ] [] [] 2.0 with
            | [], _, _ -> false
            | _ -> (
              match Unix.read sock (Bytes.create 1) 0 1 with
              | 0 -> true
              | _ -> false
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)
          in
          Unix.close sock;
          check_bool (reason ^ ": connection severed") severed
        in
        attack
          ~bad:(Printf.sprintf "1\n%d\n" (Tcp.max_frame + 1))
          ~reason:"oversize";
        attack ~bad:"not\na header\n" ~reason:"garbage";
        check_int "one oversize rejection" 1 (rejected_count "oversize");
        check_int "one garbage rejection" 1 (rejected_count "garbage");
        Tcp.close c);
  ]
