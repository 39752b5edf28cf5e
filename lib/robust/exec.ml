open Automode_core
open Automode_obs

let width = 8

let key_groups = "campaign.prefix.groups"
let key_forks = "campaign.prefix.forks"
let key_shared = "campaign.prefix.shared_ticks"
let key_replayed = "campaign.prefix.replayed_ticks"

let count_stats ~ticks ~at forks =
  if Probe.active () then begin
    let resumed = ref 0 and shared = ref 0 in
    let replayed = ref (List.fold_left max 0 at) in
    Array.iter
      (fun f ->
        if f > 0 then begin
          incr resumed;
          shared := !shared + f
        end;
        replayed := !replayed + (ticks - f))
      forks;
    Probe.count ~by:(List.length at) key_groups;
    Probe.count ~by:!resumed key_forks;
    Probe.count ~by:!shared key_shared;
    Probe.count ~by:!replayed key_replayed
  end

(* Below its fork tick a case's stimulus and schedule equal the base
   ones, so the trunk's loop iterations are exactly the iterations the
   case itself would execute, and a restored column replays exactly the
   remaining ones (the {!Sim.batch_snapshot} contract). *)
let traces ?(share = true) ~ix ~ticks ~base_inputs ~base_schedule
    (cases : (Fault.t list * Sim.input_fn * Clock.schedule) array) :
    Trace.t array =
  let n = Array.length cases in
  if (not share) || n <= 1 then
    Array.of_list
      (Parallel.map
         (fun (_, inputs, schedule) ->
           Sim.run_indexed ~schedule ~ticks ~inputs ix)
         (Array.to_list cases))
  else begin
    let forks =
      Array.map
        (fun (faults, _, _) -> Fault.first_effect_tick faults ~horizon:ticks)
        cases
    in
    let at =
      List.sort_uniq Int.compare
        (List.filter (fun t -> t > 0) (Array.to_list forks))
    in
    count_stats ~ticks ~at forks;
    let w = min n width in
    let b = Sim.batch ~instances:w ix in
    (* the trunk advances column 0 span by span, captured at each
       distinct fork tick above 0 *)
    let snaps = Hashtbl.create 16 in
    ignore
      (List.fold_left
         (fun prev t ->
           Sim.run_batch ~count:1 ~start:prev ~stop:t ~reset:(prev = 0)
             ~ticks
             ~inputs:(fun _ -> base_inputs)
             ~schedules:(fun _ -> base_schedule)
             b;
           Hashtbl.replace snaps t (Sim.batch_snapshot b ~instance:0 ~tick:t);
           t)
         0 at);
    let out = Array.make n None in
    let run_group t =
      let idxs =
        Array.of_list
          (List.filter (fun i -> forks.(i) = t) (List.init n Fun.id))
      in
      let group_n = Array.length idxs in
      let pos = ref 0 in
      while !pos < group_n do
        let lo = !pos in
        let count = min w (group_n - lo) in
        let case j = cases.(idxs.(lo + j)) in
        if t > 0 then begin
          let snap = Hashtbl.find snaps t in
          for j = 0 to count - 1 do
            Sim.batch_restore b snap ~instance:j
          done
        end;
        Sim.run_batch ~count ~start:t ~reset:(t = 0) ~ticks
          ~inputs:(fun j ->
            let _, inputs, _ = case j in
            inputs)
          ~schedules:(fun j ->
            let _, _, schedule = case j in
            schedule)
          ~shards:(Parallel.domains ())
          ~map:(fun thunks -> ignore (Parallel.map (fun f -> f ()) thunks))
          b;
        (* materialize before the next chunk reuses the columns *)
        for j = 0 to count - 1 do
          out.(idxs.(lo + j)) <- Some (Sim.batch_trace b ~instance:j)
        done;
        pos := lo + count
      done
    in
    List.iter run_group (0 :: at);
    Array.map (function Some t -> t | None -> assert false) out
  end
