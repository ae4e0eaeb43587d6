(** Structured guard violations.

    Every runtime or static guard in this library reports failure as a
    {!Violation} carrying which guard fired, which loop and access (and
    access class) it localized, and a human-readable detail line — the
    diagnostics the degradation ladder surfaces instead of silently
    corrupted results. *)

open Minic

type guard_kind =
  | Span_guard
      (** a redirected access landed outside the thread's copy of an
          expanded block (or straddled a copy boundary) *)
  | Contract_static
      (** a Definition-5 precondition claimed by the expansion plan is
          not supported by the reference classification *)
  | Contract_stream
      (** the per-access value stream of an expanded run diverged from
          the sequential oracle *)
  | Contract_final
      (** the final memory state of an eligible global diverged from
          the sequential oracle *)
  | Contract_output
      (** a run's output or exit code diverged from the sequential
          oracle *)

type info = {
  guard : guard_kind;
  loop : Ast.lid option;  (** target loop the access belongs to *)
  access : Ast.aid option;  (** the first offending access site *)
  access_class : Ast.aid list option;  (** members of its access class *)
  detail : string;
}

exception Violation of info

let guard_name = function
  | Span_guard -> "span-guard"
  | Contract_static -> "contract-static"
  | Contract_stream -> "contract-stream"
  | Contract_final -> "contract-final"
  | Contract_output -> "contract-output"

let to_string (i : info) : string =
  let opt f = function Some v -> f v | None -> "?" in
  Printf.sprintf "[%s] loop=%s access=%s class={%s}: %s"
    (guard_name i.guard)
    (opt string_of_int i.loop)
    (opt string_of_int i.access)
    (match i.access_class with
    | Some aids -> String.concat "," (List.map string_of_int aids)
    | None -> "?")
    i.detail

let pp fmt i = Format.pp_print_string fmt (to_string i)

let fire ?loop ?access ?access_class guard fmt =
  Printf.ksprintf
    (fun detail ->
      raise (Violation { guard; loop; access; access_class; detail }))
    fmt

(* Violation escapes through [Printexc]-formatted reports in tests and
   the CLI; give it a readable rendering there too. *)
let () =
  Printexc.register_printer (function
    | Violation i -> Some ("Guard.Violation " ^ to_string i)
    | _ -> None)
