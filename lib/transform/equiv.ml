open Automode_core

type divergence = {
  d_tick : int;
  d_flow : string;
  d_left : Value.message;
  d_right : Value.message;
}

let pp_divergence ppf d =
  Format.fprintf ppf "tick %d, flow %s: %a vs %a" d.d_tick d.d_flow
    Value.pp_message d.d_left Value.pp_message d.d_right

let random_value state (ty : Dtype.t option) =
  match ty with
  | Some Dtype.Tbool -> Value.Bool (Random.State.bool state)
  | Some Dtype.Tint | None -> Value.Int (Random.State.int state 201 - 100)
  | Some Dtype.Tfloat ->
    Value.Float (Random.State.float state 200. -. 100.)
  | Some (Dtype.Tenum e) ->
    let i = Random.State.int state (List.length e.literals) in
    Value.Enum (e.enum_name, List.nth e.literals i)
  | Some (Dtype.Ttuple _ as t) -> Dtype.default_value t

let random_inputs ~seed ?(presence = 1.0) (ports : Model.port list) =
  let inputs = List.filter (fun (p : Model.port) -> p.port_dir = Model.In) ports in
  (* Pre-generate per tick lazily but deterministically: derive a stream
     state per tick from the seed so that the same tick always yields the
     same messages regardless of query order. *)
  fun tick ->
    let state = Random.State.make [| seed; tick |] in
    List.filter_map
      (fun (p : Model.port) ->
        let present =
          presence >= 1.0 || Random.State.float state 1.0 < presence
        in
        if present then Some (p.port_name, Value.Present (random_value state p.port_type))
        else None)
      inputs

let trace_equivalent ?(ticks = 64) ?(seed = 42) ?presence ?flows left right =
  let inputs = random_inputs ~seed ?presence left.Model.comp_ports in
  let t_left = Sim.run ~ticks ~inputs left in
  let t_right = Sim.run ~ticks ~inputs right in
  let t_left, t_right =
    match flows with
    | Some fs -> (Trace.restrict t_left fs, Trace.restrict t_right fs)
    | None -> (t_left, t_right)
  in
  match Trace.first_divergence t_left t_right with
  | None -> Ok ()
  | Some (d_tick, d_flow, d_left, d_right) ->
    Error { d_tick; d_flow; d_left; d_right }

let equivalent_on_runs ~runs ?ticks ?presence ?flows left right =
  let rec go seed =
    if seed >= runs then Ok ()
    else
      match trace_equivalent ?ticks ~seed ?presence ?flows left right with
      | Ok () -> go (seed + 1)
      | Error d -> Error (seed, d)
  in
  go 0

let refines_with_latency ?(float_tol = 0.) ~window ~warmup ~flows ~reference
    refined =
  let close a b =
    match a, b with
    | Value.Present (Value.Float x), Value.Present (Value.Float y) ->
      Float.abs (x -. y) <= float_tol
    | _, _ -> Value.equal_message a b
  in
  (* Each trace's columns are read once, as arrays: a [Trace.get] per
     tick walks the tick list, O(ticks^2) per scan.  Same semantics:
     [Absent] past a trace's end, [Not_found] for an unknown flow. *)
  let getter trace =
    let cols = lazy (Trace.columns trace) in
    fun ~flow ~tick ->
      let col = List.assoc flow (Lazy.force cols) in
      if tick < 0 || tick >= Array.length col then Value.Absent
      else col.(tick)
  in
  let get_refined = getter refined and get_reference = getter reference in
  let ticks = Trace.length refined in
  let rec scan_tick t =
    if t >= ticks then Ok ()
    else
      let bad_flow =
        List.find_opt
          (fun flow ->
            match get_refined ~flow ~tick:t with
            | Value.Absent -> false
            | Value.Present _ as msg ->
              let matches d =
                t - d >= 0 && close msg (get_reference ~flow ~tick:(t - d))
              in
              not (List.exists matches (List.init (window + 1) Fun.id)))
          flows
      in
      match bad_flow with
      | None -> scan_tick (t + 1)
      | Some flow ->
        Error
          { d_tick = t;
            d_flow = flow;
            d_left = get_reference ~flow ~tick:t;
            d_right = get_refined ~flow ~tick:t }
  in
  scan_tick warmup
