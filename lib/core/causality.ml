type loop = string list

let instantaneous_edges (net : Model.network) =
  List.filter_map
    (fun (ch : Model.channel) ->
      match ch.ch_src.ep_comp, ch.ch_dst.ep_comp with
      | Some src, Some dst when not ch.ch_delayed -> Some (src, dst)
      | Some _, Some _ | None, _ | _, None -> None)
    net.net_channels

(* The instantaneous dependency graph over dense ids.  Declared
   components get ids 0 .. ndecl-1 in first-declaration order (a repeated
   name keeps its first id); names that only occur as channel endpoints
   follow, in edge order.  Successor lists keep channel order, duplicates
   included, so the traversals below visit exactly what a scan of the
   edge list would. *)
type graph = {
  names : string array;
  ndecl : int;
  succ : int list array;
  self_loop : bool array;
}

let graph (net : Model.network) =
  let ids = Hashtbl.create 64 in
  let rev_names = ref [] in
  let count = ref 0 in
  let id_of name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
      let i = !count in
      Hashtbl.add ids name i;
      rev_names := name :: !rev_names;
      incr count;
      i
  in
  List.iter (fun (c : Model.component) -> ignore (id_of c.comp_name))
    net.net_components;
  let ndecl = !count in
  let edges =
    List.map (fun (a, b) -> (id_of a, id_of b)) (instantaneous_edges net)
  in
  let succ = Array.make !count [] in
  let self_loop = Array.make !count false in
  List.iter
    (fun (a, b) ->
      succ.(a) <- b :: succ.(a);
      if a = b then self_loop.(a) <- true)
    edges;
  { names = Array.of_list (List.rev !rev_names);
    ndecl;
    succ = Array.map List.rev succ;
    self_loop }

(* Tarjan's strongly connected components, rooted at the declared
   components in declaration order. *)
let sccs g =
  let n = Array.length g.names in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- Stdlib.min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then
          lowlink.(v) <- Stdlib.min lowlink.(v) index.(w))
      g.succ.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      result := pop [] :: !result
    end
  in
  for v = 0 to g.ndecl - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !result

let cyclic_sccs g =
  List.filter_map
    (fun scc ->
      match scc with
      | [] -> None
      | [ v ] when not g.self_loop.(v) -> None
      | _ -> Some (List.map (fun v -> g.names.(v)) scc))
    (sccs g)

let smallest_first loops =
  List.sort (fun a b -> Int.compare (List.length a) (List.length b)) loops

let check net =
  match cyclic_sccs (graph net) with
  | [] -> Ok ()
  | loops -> Error (smallest_first loops)

module Int_set = Set.Make (Int)

let evaluation_order (net : Model.network) =
  let g = graph net in
  match cyclic_sccs g with
  | _ :: _ as loops -> Error (smallest_first loops)
  | [] ->
    (* Kahn's algorithm over declared components.  Ids are declaration
       indices, so the smallest ready id is the ready component declared
       first.  An undeclared source is never evaluated, so its edges
       impose no order. *)
    let indeg = Array.make g.ndecl 0 in
    for a = 0 to g.ndecl - 1 do
      List.iter
        (fun b -> if b < g.ndecl then indeg.(b) <- indeg.(b) + 1)
        g.succ.(a)
    done;
    let ready = ref Int_set.empty in
    Array.iteri (fun v d -> if d = 0 then ready := Int_set.add v !ready) indeg;
    let rec go order ready =
      match Int_set.min_elt_opt ready with
      | None -> List.rev order
      | Some v ->
        let ready =
          List.fold_left
            (fun ready w ->
              if w >= g.ndecl then ready
              else begin
                indeg.(w) <- indeg.(w) - 1;
                if indeg.(w) = 0 then Int_set.add w ready else ready
              end)
            (Int_set.remove v ready) g.succ.(v)
        in
        go (g.names.(v) :: order) ready
    in
    Ok (go [] !ready)

let check_recursive (comp : Model.component) =
  let offending = ref [] in
  Model.iter_components
    (fun path (c : Model.component) ->
      match c.comp_behavior with
      | Model.B_dfd net ->
        (match check net with
         | Ok () -> ()
         | Error loops ->
           List.iter
             (fun loop -> offending := (path @ [ c.comp_name ], loop) :: !offending)
             loops)
      | Model.B_ssd _ | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _
      | Model.B_unspecified -> ())
    comp;
  List.rev !offending
