(* A deterministic fork/join map over an OCaml 5 domain pool, plus the
   domain budget every fan-out reads.

   Work items are claimed from a shared atomic counter (dynamic load
   balancing: fast seeds don't idle a worker that could take another),
   but results land in a pre-sized array at the item's own index, so the
   returned list is always in input order — campaigns merge verdicts
   back in seed order and their reports stay byte-identical to a serial
   run regardless of scheduling.  The budget is domain-local: a spawned
   domain reads the default 1 until [map] hands it its share. *)

let budget = Domain.DLS.new_key (fun () -> 1)

let domains () = Domain.DLS.get budget

let with_domains n f =
  if n < 1 then invalid_arg "Parallel.with_domains: n < 1";
  let old = Domain.DLS.get budget in
  Domain.DLS.set budget n;
  Fun.protect ~finally:(fun () -> Domain.DLS.set budget old) f

let map ?domains:requested f items =
  let total = domains () in
  let width = Stdlib.max 1 (Option.value requested ~default:total) in
  let share = Stdlib.max 1 (total / width) in
  let arr = Array.of_list items in
  let n = Array.length arr in
  if width = 1 || n <= 1 then with_domains share (fun () -> List.map f items)
  else begin
    let workers = Stdlib.min width n in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            match f arr.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          loop ()
        end
      in
      with_domains share loop
    in
    (* the calling domain is one of the workers *)
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None ->
           (* every index < n is claimed exactly once before the joins
              return *)
           assert false)
  end
