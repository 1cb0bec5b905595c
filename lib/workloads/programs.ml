(** Name resolution for the built-in programs: the Perfect Club models
    and the kernels, matched case-insensitively. The CLI and the sweep
    daemon both resolve names here. *)

(** The builder of [name], if it names a built-in program. [small]
    (default [false]) picks a Perfect model's test scale; kernels have
    one scale. *)
let find ?(small = false) name =
  match Perfect.find name with
  | Some e -> Some (if small then e.Perfect.build_small else e.Perfect.build)
  | None -> List.assoc_opt (String.lowercase_ascii name) Kernels.all

(** Every built-in name, the Perfect models first. *)
let names = Perfect.names @ List.map fst Kernels.all
