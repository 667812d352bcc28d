(* Seeded operation streams for the three workloads, each paired with
   the answer every read must return.

   Everything here runs before any timer starts. The expected answers
   come from the benchmark's own models — BFS reachability over its
   own edge list for [tc_closure], a replay of the op log (uploads,
   selections, ratings) for the Wepic workloads — never from the
   engine, so a wrong engine answer counts as a failure. *)

module IS = Set.Make (Int)

type op =
  | Add_edge of int * int
  | Reach of int  (** point query: nodes reachable from this one *)
  | Upload of { owner : string; id : int; name : string; data : string }
  | Select of { viewer : string; target : string }
  | Deselect of { viewer : string; target : string }
  | Rate of { owner : string; id : int; rating : int }
  | Tag of { owner : string; id : int; who : string }
  | Comment of { owner : string; id : int; author : string; text : string }
  | Select_picture of { viewer : string; owner : string; id : int; name : string }
  | Frame of string  (** viewer's attendeePictures: (id, owner) *)
  | Rated of string  (** viewer's ratedPictures: (id, best rating) *)
  | Best of string  (** owner's bestRating: (id, best rating) *)

let is_read = function Reach _ | Frame _ | Rated _ | Best _ -> true | _ -> false

(* An answer is a sorted, duplicate-free list of rows, each row a list
   of ints (attendee names are mapped to their index). *)
type answer = int list list

type stream = {
  ops : op array;
  expected : answer option array;  (** [Some] exactly for reads *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [true] for an update, [false] for a read: the updates spread evenly
   through the stream, the same way for every seed. *)
let interleave ~updates ~reads =
  let total = updates + reads in
  Array.init total (fun k -> ((k + 1) * updates / total) > (k * updates / total))

(* {1 tc_closure} *)

type tc_size = {
  nodes : int;
  component : int;  (** edges only join nodes of one block this wide *)
  base_edges : int;  (** loaded at set-up, before the first op *)
  tc_updates : int;
  tc_reads : int;
}

let tc_full =
  { nodes = 500; component = 20; base_edges = 500; tc_updates = 1500;
    tc_reads = 1000 }

let tc_small =
  { nodes = 60; component = 12; base_edges = 20; tc_updates = 60; tc_reads = 40 }

(* A seeded random DAG: every edge goes from a lower to a higher node
   of the same block, and every block gets the same number of edges, so
   the closure (and with it the cost of an op) varies little from seed
   to seed. Each block's edges arrive longest first: a path of two or
   more edges from a to b only uses edges shorter than b − a, so no
   edge is ever already implied, and every update adds to the closure.
   In a random order 35–42% of the updates would add nothing, a share
   that depends on the seed, and the update median would sit at the
   edge of that fast group. Returns the set-up edges and the op
   stream. *)
let tc ~seed size =
  let rng = Random.State.make [| seed; 0x7c |] in
  let blocks = size.nodes / size.component in
  let want = size.base_edges + size.tc_updates in
  let per_block = want / blocks in
  if per_block * blocks <> want || per_block > size.component * (size.component - 1) / 2
  then invalid_arg "Gen.tc: edges do not fill the blocks evenly";
  let span (a, b) = b - a in
  let chosen =
    Array.init blocks (fun k ->
        let lo = k * size.component in
        let pairs =
          Array.of_list
            (List.concat
               (List.init size.component (fun i ->
                    List.init (size.component - i - 1) (fun j -> (lo + i, lo + i + j + 1)))))
        in
        shuffle rng pairs;
        let mine = Array.sub pairs 0 per_block in
        Array.stable_sort (fun e f -> compare (span f) (span e)) mine;
        mine)
  in
  (* the blocks take turns in a seeded order; each keeps its own order *)
  let turns = Array.init want (fun i -> i mod blocks) in
  shuffle rng turns;
  let next = Array.make blocks 0 in
  let cands =
    Array.map
      (fun k ->
        let e = chosen.(k).(next.(k)) in
        next.(k) <- next.(k) + 1;
        e)
      turns
  in
  let succ = Array.make size.nodes [] in
  let add (a, b) = succ.(a) <- b :: succ.(a) in
  let base = Array.to_list (Array.sub cands 0 size.base_edges) in
  List.iter add base;
  let reach x =
    let seen = Array.make size.nodes false in
    let rec go acc = function
      | [] -> acc
      | v :: rest ->
        let fresh = List.filter (fun w -> not seen.(w)) succ.(v) in
        List.iter (fun w -> seen.(w) <- true) fresh;
        go (List.rev_append fresh acc) (List.rev_append fresh rest)
    in
    List.map (fun y -> [ y ]) (List.sort_uniq compare (go [] [ x ]))
  in
  let kinds = interleave ~updates:size.tc_updates ~reads:size.tc_reads in
  let next_edge = ref size.base_edges in
  let ops =
    Array.map
      (fun is_update ->
        if is_update then begin
          let e = cands.(!next_edge) in
          incr next_edge;
          add e;
          (Add_edge (fst e, snd e), None)
        end
        else
          let x = Random.State.int rng size.nodes in
          (Reach x, Some (reach x)))
      kinds
  in
  (base, { ops = Array.map fst ops; expected = Array.map snd ops })

(* {1 Wepic} *)

type wepic_size = {
  attendees : int;
  pictures_per_attendee : int;
  payload_bytes : int;
  rating_density : float;
  w_updates : int;
  w_reads : int;
}

let wepic_tcp_full =
  { attendees = 24; pictures_per_attendee = 8; payload_bytes = 64;
    rating_density = 0.5; w_updates = 1000; w_reads = 1000 }

let wepic_inmem_full = { wepic_tcp_full with attendees = 48 }

let wepic_small =
  { attendees = 5; pictures_per_attendee = 3; payload_bytes = 16;
    rating_density = 0.5; w_updates = 60; w_reads = 40 }

let attendee i = Wdl_wepic.Workload.attendee_name i

(* attendee names are "attendee<i>"; answers carry the index *)
let index_of name =
  match Scanf.sscanf_opt name "attendee%u%!" Fun.id with
  | Some i -> i
  | None -> failwith ("not an attendee name: " ^ name)

(* The state a Wepic op log implies: which pictures each attendee
   owns, whom each viewer selected, and each picture's best rating. *)
type model = {
  pics : (int, (int * string) list) Hashtbl.t;  (** owner -> (id, name), newest first *)
  sel : (int, IS.t) Hashtbl.t;  (** viewer -> selected attendees *)
  best : (int * int, int) Hashtbl.t;  (** (owner, id) -> max rating *)
  next_pic : int array;  (** per owner: next picture number *)
}

let pics m o = Option.value ~default:[] (Hashtbl.find_opt m.pics o)
let sel m v = Option.value ~default:IS.empty (Hashtbl.find_opt m.sel v)

let rate m ~owner ~id rating =
  let k = (owner, id) in
  match Hashtbl.find_opt m.best k with
  | Some r when r >= rating -> ()
  | _ -> Hashtbl.replace m.best k rating

(* Mirrors [Workload.populate]: the same seeded stream of ratings over
   the same picture ids, so the model starts where set-up leaves the
   system. *)
let populate_model size ~seed =
  let m =
    { pics = Hashtbl.create 64; sel = Hashtbl.create 64; best = Hashtbl.create 256;
      next_pic = Array.make (size.attendees + 1) (size.pictures_per_attendee + 1) }
  in
  let rng = Random.State.make [| seed |] in
  for i = 1 to size.attendees do
    for j = 1 to size.pictures_per_attendee do
      let id = (i * 10_000) + j in
      Hashtbl.replace m.pics i ((id, Printf.sprintf "pic_%d_%d.jpg" i j) :: pics m i);
      if Random.State.float rng 1.0 < size.rating_density then
        rate m ~owner:i ~id (1 + Random.State.int rng 5)
    done
  done;
  m

let spec size ~seed =
  { Wdl_wepic.Workload.attendees = size.attendees;
    pictures_per_attendee = size.pictures_per_attendee;
    payload_bytes = size.payload_bytes;
    rating_density = size.rating_density;
    seed }

let frame m v =
  IS.fold
    (fun o acc -> List.fold_left (fun acc (id, _) -> [ id; o ] :: acc) acc (pics m o))
    (sel m v) []
  |> List.sort_uniq compare

let rated m v =
  IS.fold
    (fun o acc ->
      List.fold_left
        (fun acc (id, _) ->
          match Hashtbl.find_opt m.best (o, id) with
          | Some r -> [ id; r ] :: acc
          | None -> acc)
        acc (pics m o))
    (sel m v) []
  |> List.sort_uniq compare

let best m o =
  List.filter_map
    (fun (id, _) -> Option.map (fun r -> [ id; r ]) (Hashtbl.find_opt m.best (o, id)))
    (pics m o)
  |> List.sort_uniq compare

let pick rng l = List.nth l (Random.State.int rng (List.length l))

type button = Upload_b | Select_b | Deselect_b | Rate_b | Tag_b | Comment_b | Pick_b

(* The Fig. 1 buttons in a fixed cycle of 20 presses: 3 attendee
   selections, 3 deselections, 2 uploads, 5 ratings, 3 tags, 2 comments
   and 2 picture selections. A fixed cycle keeps the number of live
   selections — and with it the cost of an op — on the same path for
   every seed; the seed decides who presses which button on what. *)
let cycle =
  [| Select_b; Upload_b; Rate_b; Deselect_b; Tag_b; Rate_b; Pick_b; Select_b; Comment_b;
     Rate_b; Deselect_b; Tag_b; Upload_b; Rate_b; Select_b; Comment_b; Deselect_b; Rate_b;
     Tag_b; Pick_b |]

(* One button press, drawn from the model's current state so that
   every op is valid: deselect only what is selected, rate only
   pictures that exist. *)
let wepic_update rng size m ~seed button =
  let n = size.attendees in
  let everyone = List.init n (fun i -> i + 1) in
  let any () = 1 + Random.State.int rng n in
  let pic_of o = fst (pick rng (pics m o)) in
  let select () =
    let v = any () in
    let free = List.filter (fun o -> o <> v && not (IS.mem o (sel m v))) everyone in
    let o = pick rng free in
    Hashtbl.replace m.sel v (IS.add o (sel m v));
    Select { viewer = attendee v; target = attendee o }
  in
  match button with
  | Upload_b ->
    let o = any () in
    let j = m.next_pic.(o) in
    m.next_pic.(o) <- j + 1;
    let id = (o * 10_000) + j in
    let name = Printf.sprintf "pic_%d_%d.jpg" o j in
    Hashtbl.replace m.pics o ((id, name) :: pics m o);
    Upload
      { owner = attendee o; id; name;
        data = Wdl_wepic.Workload.payload ~seed:(seed + id) ~bytes:size.payload_bytes }
  | Select_b -> select ()
  | Deselect_b -> (
    match List.filter (fun v -> not (IS.is_empty (sel m v))) everyone with
    | [] -> select ()
    | viewers ->
      let v = pick rng viewers in
      let o = pick rng (IS.elements (sel m v)) in
      Hashtbl.replace m.sel v (IS.remove o (sel m v));
      Deselect { viewer = attendee v; target = attendee o })
  | Rate_b ->
    let o = any () in
    let id = pic_of o and rating = 1 + Random.State.int rng 5 in
    rate m ~owner:o ~id rating;
    Rate { owner = attendee o; id; rating }
  | Tag_b ->
    let o = any () in
    Tag { owner = attendee o; id = pic_of o; who = attendee (any ()) }
  | Comment_b ->
    let o = any () in
    Comment
      { owner = attendee o; id = pic_of o; author = attendee (any ());
        text = Printf.sprintf "nice %d" (Random.State.int rng 1000) }
  | Pick_b ->
    (* a picture from the viewer's frame, or else one of their own *)
    let v = any () in
    let o, id =
      match frame m v with
      | [] -> (v, pic_of v)
      | frame -> ( match pick rng frame with [ id; o ] -> (o, id) | _ -> assert false)
    in
    Select_picture { viewer = attendee v; owner = attendee o; id; name = List.assoc id (pics m o) }

(* The Query tab: the three questions take turns. *)
let wepic_read rng size m k =
  let v = 1 + Random.State.int rng size.attendees in
  match k mod 3 with
  | 0 -> (Frame (attendee v), frame m v)
  | 1 -> (Rated (attendee v), rated m v)
  | _ -> (Best (attendee v), best m v)

let wepic ~seed size =
  let m = populate_model size ~seed in
  let rng = Random.State.make [| seed; 0x3e |] in
  let u = ref 0 and r = ref 0 in
  let ops =
    Array.map
      (fun is_update ->
        if is_update then begin
          incr u;
          (wepic_update rng size m ~seed cycle.((!u - 1) mod Array.length cycle), None)
        end
        else begin
          incr r;
          let op, ans = wepic_read rng size m (!r - 1) in
          (op, Some ans)
        end)
      (interleave ~updates:size.w_updates ~reads:size.w_reads)
  in
  { ops = Array.map fst ops; expected = Array.map snd ops }
