open Automode_core
open Automode_obs

let width = 8

let key_groups = "campaign.prefix.groups"
let key_forks = "campaign.prefix.forks"
let key_shared = "campaign.prefix.shared_ticks"
let key_replayed = "campaign.prefix.replayed_ticks"

(* The fixed cost of one kernel pass over a tick, in columns: a pass
   over [k] columns costs about [pass_cost + k] column-ticks.  Measured
   per-tick cost at width 8 over width 1 is 1.8x on the replicated
   scenario, 2.4x on the door lock and 3.6x on a random DFD of 800
   blocks; a fixed cost of [a] columns gives (a + 8) / (a + 1), so 2
   sits at the large models, where the plan matters most. *)
let pass_cost = 2

(* The chunk plan: cases sorted by fork tick, latest first (ties in
   case order), cut into consecutive chunks of at most [w] cases.  A
   chunk starts at its earliest member's fork, its last one.  The cut
   minimizes the sum over chunks of [(ticks - start) * (pass_cost +
   size)] in O(n * w); on a tie the larger last chunk wins, so cases
   that never fork (span 0) fill whole chunks.  Returns [(start, case
   indices)] in sorted order. *)
let plan ~ticks ~w forks =
  let n = Array.length forks in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Int.compare forks.(j) forks.(i)) order;
  let best = Array.make (n + 1) max_int and cut = Array.make (n + 1) 0 in
  best.(0) <- 0;
  for i = 1 to n do
    let span = ticks - forks.(order.(i - 1)) in
    for k = 1 to min w i do
      let c = best.(i - k) + (span * (pass_cost + k)) in
      if c <= best.(i) then begin
        best.(i) <- c;
        cut.(i) <- k
      end
    done
  done;
  let rec chunks i acc =
    if i = 0 then acc
    else
      let k = cut.(i) in
      chunks (i - k) ((forks.(order.(i - 1)), Array.sub order (i - k) k) :: acc)
  in
  chunks n []

let count_stats ~ticks ~starts chunks =
  if Probe.active () then begin
    let resumed = ref 0 and shared = ref 0 in
    let replayed = ref (List.fold_left max 0 starts) in
    List.iter
      (fun (s, idxs) ->
        let size = Array.length idxs in
        if s > 0 then begin
          resumed := !resumed + size;
          shared := !shared + (size * s)
        end;
        replayed := !replayed + (size * (ticks - s)))
      chunks;
    Probe.count ~by:(List.length starts) key_groups;
    Probe.count ~by:!resumed key_forks;
    Probe.count ~by:!shared key_shared;
    Probe.count ~by:!replayed key_replayed
  end

(* Below its fork tick a case's stimulus and schedule equal the base
   ones, so the trunk's loop iterations up to any tick at or before the
   fork are exactly the iterations the case itself would execute, and a
   column restored there replays exactly the remaining ones (the
   {!Sim.batch_snapshot} contract). *)
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
    let w = min n width in
    let chunks = plan ~ticks ~w forks in
    let starts =
      List.sort_uniq Int.compare
        (List.filter_map (fun (s, _) -> if s > 0 then Some s else None) chunks)
    in
    count_stats ~ticks ~starts chunks;
    let b = Sim.batch ~instances:w ix in
    (* the trunk advances column 0 span by span, captured at each
       distinct chunk start above 0 *)
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
         0 starts);
    let out = Array.make n None in
    List.iter
      (fun (start, idxs) ->
        let count = Array.length idxs in
        let case j = cases.(idxs.(j)) in
        if start > 0 then begin
          let snap = Hashtbl.find snaps start in
          for j = 0 to count - 1 do
            Sim.batch_restore b snap ~instance:j
          done
        end;
        Sim.run_batch ~count ~start ~reset:(start = 0) ~ticks
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
          out.(idxs.(j)) <- Some (Sim.batch_trace b ~instance:j)
        done)
      chunks;
    Array.map (function Some t -> t | None -> assert false) out
  end
