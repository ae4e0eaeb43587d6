(** Paged flat shadow memory: a fixed number of ints for every shadowed
    unit, in pages of 4096 units that are allocated on first touch. A
    unit is any int key. The dependence profiler keeps two shadows:
    aligned 4-byte granules (a unit is an address shifted right by 2),
    and the bytes of the granules an access has covered only partly (a
    unit is an address). The domain executor's pre-pass shadows 8-byte
    granules (a unit is an address shifted right by 3). Looking a unit
    up allocates nothing. *)

type t

(** [k land page_mask] is unit [k]'s index within its page. *)
val page_mask : int

(** The page of a unit no access has touched yet. *)
val no_page : int array

(** A shadow with [fields] ints per unit; every int of a fresh page is
    [init]. *)
val create : fields:int -> init:int -> t

(** The page holding unit [k], or {!no_page}. Unit [k]'s fields start
    at [(k land page_mask) * fields]. *)
val find_page : t -> int -> int array

(** The page holding unit [k], allocated if need be. *)
val page : t -> int -> int array
