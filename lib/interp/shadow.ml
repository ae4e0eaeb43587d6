(** See the interface. The page directory doubles when a unit beyond
    it is first touched; pages themselves never move. *)

let page_bits = 12
let page_mask = (1 lsl page_bits) - 1

type t = {
  fields : int;
  init : int;
  mutable pages : int array array;  (** [no_page]: never touched *)
}

let no_page : int array = [||]
let create ~fields ~init = { fields; init; pages = Array.make 1024 no_page }

let[@inline] find_page sh k =
  let i = k lsr page_bits in
  if i < Array.length sh.pages then sh.pages.(i) else no_page

let new_page sh i =
  if i >= Array.length sh.pages then begin
    let dir = Array.make (2 * (i + 1)) no_page in
    Array.blit sh.pages 0 dir 0 (Array.length sh.pages);
    sh.pages <- dir
  end;
  let p = Array.make (sh.fields lsl page_bits) sh.init in
  sh.pages.(i) <- p;
  p

let[@inline] page sh k =
  let p = find_page sh k in
  if p != no_page then p else new_page sh (k lsr page_bits)
