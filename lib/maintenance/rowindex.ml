(* Links are two native-endian int32 slots per row: [next] at 8r, [prev] at
   8r + 4; [none] terminates a chain. The head of every chain is the row
   the [heads] map holds for its key. *)
let none = -1

type t = {
  heads : Rowmap.t;
  hash : int -> int;
  same : int -> int -> bool;
  mutable links : Bytes.t;
  mutable len : int;
}

let create ~hash ~same () =
  { heads = Rowmap.create ~hash (); hash; same; links = Bytes.empty; len = 0 }

let length t = t.len
let next t r = Int32.to_int (Bytes.get_int32_ne t.links (8 * r))
let prev t r = Int32.to_int (Bytes.get_int32_ne t.links ((8 * r) + 4))
let set_next t r v = Bytes.set_int32_ne t.links (8 * r) (Int32.of_int v)
let set_prev t r v = Bytes.set_int32_ne t.links ((8 * r) + 4) (Int32.of_int v)

let append t r =
  if r <> t.len then
    invalid_arg (Printf.sprintf "Rowindex.append: row %d of %d" r t.len);
  if 8 * (r + 1) > Bytes.length t.links then begin
    let links = Bytes.create (8 * max 16 (2 * t.len)) in
    Bytes.blit t.links 0 links 0 (8 * t.len);
    t.links <- links
  end;
  t.len <- r + 1;
  let hash = t.hash r in
  match Rowmap.find t.heads ~hash ~eq:(fun h -> t.same h r) with
  | Some h ->
    (* splice in right after the head: the head entry stays put *)
    let n = next t h in
    set_next t r n;
    set_prev t r h;
    if n <> none then set_prev t n r;
    set_next t h r
  | None ->
    set_next t r none;
    set_prev t r none;
    Rowmap.add t.heads ~hash r

let unlink t r =
  let p = prev t r and n = next t r in
  if p <> none then begin
    set_next t p n;
    if n <> none then set_prev t n p
  end
  else if n <> none then begin
    (* [r] heads its chain: its successor takes over the head entry *)
    ignore (Rowmap.rename_value t.heads ~hash:(t.hash r) ~old_row:r ~new_row:n);
    set_prev t n none
  end
  else ignore (Rowmap.remove_value t.heads ~hash:(t.hash r) r)

(* Row [src] is about to be renumbered [dst] (whose links are free):
   re-point its neighbours, or the head entry, at [dst]. *)
let relocate t ~src ~dst =
  let p = prev t src and n = next t src in
  if p <> none then set_next t p dst
  else
    ignore
      (Rowmap.rename_value t.heads ~hash:(t.hash src) ~old_row:src ~new_row:dst);
  if n <> none then set_prev t n dst;
  set_next t dst n;
  set_prev t dst p

let swap_delete t r =
  if r < 0 || r >= t.len then
    invalid_arg (Printf.sprintf "Rowindex.swap_delete: row %d of %d" r t.len);
  unlink t r;
  let l = t.len - 1 in
  if r <> l then relocate t ~src:l ~dst:r;
  t.len <- l

let iter_key t ~hash ~eq f =
  match Rowmap.find t.heads ~hash ~eq with
  | None -> ()
  | Some h ->
    let rec walk r =
      if r <> none then begin
        f r;
        walk (next t r)
      end
    in
    walk h

let copy t ~hash ~same =
  {
    heads = Rowmap.copy t.heads ~hash;
    hash;
    same;
    links = Bytes.copy t.links;
    len = t.len;
  }

let byte_size t = Rowmap.byte_size t.heads + Bytes.length t.links
