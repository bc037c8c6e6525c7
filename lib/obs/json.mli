(** Byte-stable JSON fragments shared by the observability exporters. *)

val string : string -> string
(** A JSON string literal: quotes, backslashes and control characters
    escaped. *)

val ns : float -> string
(** A simulated-time quantity in fixed ["%.3f"] form. *)
