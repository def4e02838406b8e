(* Benchmark-side spans around the calls into each adcheck layer.

   They are recorded by the program's own Telemetry under the category
   "adbench", so they exist only while Telemetry is enabled (in traced
   runs), and the program's Chrome trace writer exports them next to the
   program's spans.  Each span carries the request it belongs to as its
   "request" attribute (0 outside any request); its parent and self time
   follow from time containment among the benchmark spans of its domain. *)

let cat = "adbench"
let current_request = ref 0
let next_request = ref 0

let span name f =
  Telemetry.with_span ~cat ~attrs:[ ("request", string_of_int !current_request) ] name f

(* A request is a span with a fresh request id shared by every span
   opened inside it. *)
let request name f =
  incr next_request;
  let saved = !current_request in
  current_request := !next_request;
  Fun.protect ~finally:(fun () -> current_request := saved) (fun () -> span name f)

let spans () = List.filter (fun e -> e.Telemetry.ev_cat = cat) (Telemetry.events ())
let dur_ms e = e.Telemetry.ev_dur_us /. 1e3
let sum_ms = List.fold_left (fun acc e -> acc +. dur_ms e) 0.0

let mean_ms name =
  match List.filter (fun e -> e.Telemetry.ev_name = name) (spans ()) with
  | [] -> 0.0
  | l -> sum_ms l /. float_of_int (List.length l)

(* [e] lies inside [outer]: same domain, within its interval, and, for
   equal intervals, opened later. *)
let within outer e =
  let open Telemetry in
  let stop x = x.ev_start_us +. x.ev_dur_us in
  e != outer && e.ev_tid = outer.ev_tid
  && e.ev_start_us >= outer.ev_start_us
  && stop e <= stop outer
  && (e.ev_start_us > outer.ev_start_us || stop e < stop outer || e.ev_depth > outer.ev_depth)

(* Per name: (count, total ms, self ms), in first-start order.  Self
   time is a span's duration minus that of its children, the spans it
   contains that no other span inside it contains. *)
let summary () =
  let all = spans () in
  let self s =
    let inner = List.filter (within s) all in
    dur_ms s -. sum_ms (List.filter (fun c -> not (List.exists (fun o -> within o c) inner)) inner)
  in
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let name = s.Telemetry.ev_name in
      let n, tot, sf =
        match Hashtbl.find_opt tbl name with
        | Some v -> v
        | None ->
          order := name :: !order;
          (0, 0.0, 0.0)
      in
      Hashtbl.replace tbl name (n + 1, tot +. dur_ms s, sf +. self s))
    all;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order
