open Automode_core
open Automode_robust

let finite ~flow =
  Monitor.never
    ~name:(Printf.sprintf "derived-finite:%s" flow)
    ~flows:[ flow ]
    ~pred:(fun msgs ->
      match List.assoc_opt flow msgs with
      | Some (Value.Present (Value.Float f)) -> not (Float.is_finite f)
      | _ -> false)

let conforms ~flow ~ty =
  Monitor.never
    ~name:(Printf.sprintf "derived-type:%s" flow)
    ~flows:[ flow ]
    ~pred:(fun msgs ->
      match List.assoc_opt flow msgs with
      | Some (Value.Present v) -> not (Dtype.value_has_type v ty)
      | _ -> false)

let fresh ~flow ~max_gap =
  if max_gap < 1 then invalid_arg "Derive.fresh: max_gap must be positive";
  Monitor.predicate
    ~name:(Printf.sprintf "derived-fresh:%s" flow)
    (fun trace ->
      (* one walk over the flow's column, not a [Trace.get] per tick *)
      let rec scan tick gap seen = function
        | [] -> None
        | Value.Present _ :: rest -> scan (tick + 1) 0 true rest
        | Value.Absent :: rest ->
          if seen && gap + 1 > max_gap then
            Some
              ( tick,
                Printf.sprintf "%s stale for %d > %d ticks" flow (gap + 1)
                  max_gap )
          else scan (tick + 1) (gap + 1) seen rest
      in
      match Trace.column trace flow with
      | column -> scan 0 0 false column
      | exception Not_found ->
        if Trace.length trace = 0 then None
        else Some (0, Printf.sprintf "flow %s missing from trace" flow))

let range ~flow ~lo ~hi =
  Monitor.range ~name:(Printf.sprintf "derived-range:%s" flow) ~flow ~lo ~hi

let monitors ?(ranges = []) ?(staleness = []) component =
  let outs =
    List.filter
      (fun p -> p.Model.port_dir = Model.Out)
      component.Model.comp_ports
  in
  let typed =
    List.filter_map
      (fun p ->
        Option.map (fun ty -> (p.Model.port_name, ty)) p.Model.port_type)
      outs
  in
  List.map (fun (flow, ty) -> conforms ~flow ~ty) typed
  @ List.filter_map
      (fun (flow, ty) ->
        if Dtype.is_numeric ty then Some (finite ~flow) else None)
      typed
  @ List.map (fun (flow, lo, hi) -> range ~flow ~lo ~hi) ranges
  @ List.map (fun (flow, max_gap) -> fresh ~flow ~max_gap) staleness
