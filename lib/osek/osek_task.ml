type arrival = Periodic | Sporadic of { seed : int }

type t = {
  task_name : string;
  period : int;
  offset : int;
  wcet : int;
  priority : int;
  deadline : int;
  preemptable : bool;
  arrival : arrival;
}

let make ?(offset = 0) ?deadline ?(preemptable = true) ?(arrival = Periodic)
    ~name ~period ~wcet ~priority () =
  if period <= 0 then invalid_arg "Osek_task.make: period must be positive";
  if wcet <= 0 then invalid_arg "Osek_task.make: wcet must be positive";
  if offset < 0 then invalid_arg "Osek_task.make: negative offset";
  let deadline = Option.value deadline ~default:period in
  { task_name = name; period; offset; wcet; priority; deadline; preemptable;
    arrival }

let release_times t ~horizon =
  match t.arrival with
  | Periodic ->
    let rec go k acc =
      let r = t.offset + (k * t.period) in
      if r >= horizon then List.rev acc else go (k + 1) (r :: acc)
    in
    go 0 []
  | Sporadic { seed } ->
    (* minimum inter-arrival [period], plus a pseudo-random slack of up to
       one period, deterministic in the seed *)
    let state = Draw.state [| seed; Hashtbl.hash t.task_name |] in
    let rec go at acc =
      if at >= horizon then List.rev acc
      else
        let next = at + t.period + Random.State.int state (t.period + 1) in
        go next (at :: acc)
    in
    go t.offset []

let utilization t = float_of_int t.wcet /. float_of_int t.period

let total_utilization tasks =
  List.fold_left (fun acc t -> acc +. utilization t) 0. tasks

let rate_monotonic_priorities tasks =
  let sorted =
    List.stable_sort (fun a b -> Int.compare a.period b.period) tasks
  in
  List.mapi (fun i t -> { t with priority = i }) sorted

let pp ppf t =
  Format.fprintf ppf "%s(T=%dus C=%dus P=%d D=%dus%s)" t.task_name t.period
    t.wcet t.priority t.deadline
    (if t.preemptable then "" else " np")
