(** Byte-addressed flat memory for the MiniC interpreter.

    A single growable byte arena backs globals, the stack and the heap.
    Address 0 is the null pointer; the first {!base_address} bytes are
    never handed out, so small integers cast to pointers fault. A
    size-bucketed free list recycles freed blocks, and live-byte peak
    tracking feeds the paper's Figure 14 (memory-use multiples). *)

type t

(** Raised on out-of-bounds or otherwise invalid memory operations. *)
exception Fault of string

(** Lowest address ever handed out. *)
val base_address : int

val create : ?initial:int -> unit -> t

(** [release m] hands [m]'s arena to the next {!create} of the same
    size, which zeroes and reuses it instead of allocating another.
    [m] must not be used again: every later access faults. *)
val release : t -> unit

(** Allocate [size] usable bytes (zeroed); returns the base address.
    [track:false] excludes the block from live/peak accounting (used
    for the simulated call stack, which is machinery rather than
    program data). *)
val alloc : ?track:bool -> t -> int -> int

(** Usable size of a live allocation, given its base address. *)
val block_size : t -> int -> int

(** Free a block by base address; freeing address 0 is a no-op. *)
val free : t -> int -> unit

(** Little-endian loads/stores of 1/2/4/8 bytes as immediate ints;
    loads sign-extend (MiniC's all-signed model). An 8-byte value
    outside the OCaml int range (bit 63 differing from bit 62) makes
    {!load_int} raise {!Fault} rather than lose its top bit. *)
val load_int : t -> int -> int -> int

val store_int : t -> int -> int -> int -> unit

(** The same accesses on [int64] values (every 64-bit pattern). *)
val load : t -> int -> int -> int64

val store : t -> int -> int -> int64 -> unit

(** A flat, mutable float. Floating-point values cross this module's
    boundary only in cells: it is compiled apart from its callers, so
    a [float] argument or result would be boxed on every call. *)
type fcell = { mutable fv : float }

(** [load_float_cell m addr size c] reads the 4-byte [float] or 8-byte
    [double] at [addr] into [c] (a [float] widens exactly). *)
val load_float_cell : t -> int -> int -> fcell -> unit

(** [store_float_cell m addr size c] writes [c] at [addr] as a 4-byte
    [float] (rounded to nearest) or an 8-byte [double]. *)
val store_float_cell : t -> int -> int -> fcell -> unit

val blit : t -> src:int -> dst:int -> len:int -> unit
val fill : t -> dst:int -> len:int -> int -> unit

(** [add_to_buffer m buf addr len] appends the [len] bytes at [addr]
    to [buf] (bounds-checked). The domain executor captures store
    values into its write logs with this, and replays them on sibling
    machines with {!blit_from_string}. *)
val add_to_buffer : t -> Buffer.t -> int -> int -> unit

(** [blit_from_string m s src ~dst ~len] copies [len] bytes of [s]
    from offset [src] to address [dst] (bounds-checked). *)
val blit_from_string : t -> string -> int -> dst:int -> len:int -> unit

(** Store an OCaml string as a NUL-terminated C string; returns its
    address. *)
val write_cstring : t -> string -> int

val read_cstring : t -> int -> string

(** [read_string m addr len] is a copy of the [len] bytes at [addr]
    (one bounds check). *)
val read_string : t -> int -> int -> string

(** Length of the NUL-terminated C string at [addr], scanned in place. *)
val strlen : t -> int -> int

(** Currently live tracked bytes (bucket-rounded). *)
val live_bytes : t -> int

(** High-water mark of {!live_bytes}. *)
val peak_bytes : t -> int

val alloc_count : t -> int

(** Fault injection: make the [n]-th subsequent tracked allocation
    raise {!Fault} ([n] >= 1), modelling allocation failure. The knob
    disarms itself after firing. *)
val set_alloc_fault : t -> int -> unit

val clear_alloc_fault : t -> unit

(** [(base, size)] of the live allocation containing [addr], if any. *)
val find_block : t -> int -> (int * int) option
