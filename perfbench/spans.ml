(* Wall-clock spans kept by the benchmark itself, around its calls into
   the library's public functions.  Nothing here reaches into the
   program: a span is opened before a call and closed after it returns.

   Every span records its name, start, end, parent and job id.  A
   "side" span times a layer's public function on the job's own input
   where the job path offers no seam for it (e.g. the causality order
   inside [Sim.index]); side spans run outside the job's timed window
   and are excluded from the traced job latency. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (* index of the enclosing span, -1 at top level *)
  job : int;
  side : bool;
}

let spans : span array ref = ref [||]
let len = ref 0
let stack : int list ref = ref []
let on = ref false
let current_job = ref (-1)

let reset () =
  spans := [||];
  len := 0;
  stack := [];
  current_job := -1

let push s =
  if !len = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !len)) s in
    Array.blit !spans 0 bigger 0 !len;
    spans := bigger
  end;
  !spans.(!len) <- s;
  incr len;
  !len - 1

let open_ ?(side = false) name =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let i =
    push
      { name; start = Unix.gettimeofday (); stop = nan; parent;
        job = !current_job; side }
  in
  stack := i :: !stack;
  i

let close i =
  !spans.(i).stop <- Unix.gettimeofday ();
  match !stack with
  | j :: rest when j = i -> stack := rest
  | _ -> invalid_arg "Spans.close: unbalanced"

(* [with_ name f] is [f ()], inside a span when tracing is on. *)
let with_ ?side name f =
  if not !on then f ()
  else begin
    let i = open_ ?side name in
    match f () with
    | v -> close i; v
    | exception e -> close i; raise e
  end

(* A span whose bounds were observed some other way (from existing
   probe events); its parent is the innermost open span. *)
let add ~name ~start ~stop =
  if !on then begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    ignore (push { name; start; stop; parent; job = !current_job; side = false })
  end

let dur s = s.stop -. s.start

(* Self time per span: its duration minus its direct children's. *)
let self_times () =
  let self = Array.init !len (fun i -> dur !spans.(i)) in
  for i = 0 to !len - 1 do
    let p = !spans.(i).parent in
    if p >= 0 then self.(p) <- self.(p) -. dur !spans.(i)
  done;
  self

(* (name, self seconds, calls) per span name, in first-seen order. *)
let by_layer () =
  let self = self_times () in
  let tbl = Hashtbl.create 32 and order = ref [] in
  for i = 0 to !len - 1 do
    let n = !spans.(i).name in
    match Hashtbl.find_opt tbl n with
    | Some (t, c) -> Hashtbl.replace tbl n (t +. self.(i), c + 1)
    | None ->
      Hashtbl.add tbl n (self.(i), 1);
      order := n :: !order
  done;
  List.rev_map (fun n -> let t, c = Hashtbl.find tbl n in (n, t, c)) !order

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span. *)
let write_chrome path =
  let oc = open_out path in
  let t0 = if !len = 0 then 0. else !spans.(0).start in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to !len - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\
       \"dur\":%.1f,\"args\":{\"job\":%d,\"parent\":%d}}"
      (if i = 0 then "" else ",")
      s.name
      (if s.side then 2 else 1)
      ((s.start -. t0) *. 1e6) (dur s *. 1e6) s.job s.parent
  done;
  output_string oc "\n]}\n";
  close_out oc
