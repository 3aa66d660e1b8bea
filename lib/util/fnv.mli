(** FNV-1a, 64-bit: the one hash behind cache-file names, wire-frame
    checksums and the reliable transport's envelope checksums. *)

val basis : int64
(** The offset basis, [0xcbf29ce484222325]. *)

val mix : int64 -> int64 -> int64
(** [mix h x] folds one value into the hash: xor, then multiply by the
    prime [0x100000001b3].  Bytes are folded as their code; wider values
    (as the reliable transport does with float bit patterns) whole. *)

val string : int64 -> string -> int64
(** [string h s] folds every byte of [s] into [h]. *)

val hex : string -> string
(** The hash of a string from {!basis}, as 16 lowercase hex digits. *)
