let state key = Random.State.make key
let float key bound = Random.State.float (state key) bound
let int key bound = Random.State.int (state key) bound

let bound = 65536

(* The table is published through an atomic so a domain that sees a
   grown table also sees the entries copied into it; a write that lands
   in a table another domain has just replaced is lost, which only
   costs a recomputation of the same value. *)
type memo = Bytes.t Atomic.t

let memo () = Atomic.make Bytes.empty

let grow m i =
  let old = Atomic.get m in
  let len =
    Stdlib.min bound
      (Stdlib.max (i + 1) (Stdlib.max 64 (2 * Bytes.length old)))
  in
  let t = Bytes.make len '\000' in
  Bytes.blit old 0 t 0 (Bytes.length old);
  Atomic.set m t;
  t

let memoized m i f =
  if i < 0 || i >= bound then f i
  else
    let t = Atomic.get m in
    match if i < Bytes.length t then Bytes.unsafe_get t i else '\000' with
    | '\001' -> false
    | '\002' -> true
    | _ ->
      let b = f i in
      let t = if i < Bytes.length t then t else grow m i in
      Bytes.unsafe_set t i (if b then '\002' else '\001');
      b
