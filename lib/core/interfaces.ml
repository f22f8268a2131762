(** Adaptor pass 6: interface lowering for the top function.

    Pointer parameters of the top function get an explicit HLS
    interface attribute ([fpga.interface = "bram"] — the equivalent of
    [#pragma HLS interface bram port=...]), and function-level
    [hls.partition.<arg> = "kind:factor:dim"] attributes (forwarded
    from the MLIR level by the lowering) become structured per-param
    partition attributes the HLS backend binds against. *)

open Llvmir

type stats = { mutable interfaces : int; mutable partitions : int }

let fresh_stats () = { interfaces = 0; partitions = 0 }

let prefix = "hls.partition."

let parse_partition (s : string) : (string * int * int) option =
  match String.split_on_char ':' s with
  | [ kind; factor; dim ] -> (
      match (int_of_string_opt factor, int_of_string_opt dim) with
      | Some f, Some d -> Some (kind, f, d)
      | _ -> None)
  | _ -> None

let run_func ~stats (f : Lmodule.func) : Lmodule.func =
  let partition_for name =
    List.find_map
      (fun (k, v) ->
        if k = prefix ^ name then parse_partition v else None)
      f.fattrs
  in
  let params =
    List.map
      (fun (p : Lmodule.param) ->
        if Ltype.is_pointer p.pty then begin
          stats.interfaces <- stats.interfaces + 1;
          let base =
            if List.mem_assoc Hls_names.attr_interface p.pattrs then p.pattrs
            else (Hls_names.attr_interface, "bram") :: p.pattrs
          in
          let pattrs =
            match partition_for p.pname with
            | Some (kind, factor, dim) ->
                stats.partitions <- stats.partitions + 1;
                (Hls_names.attr_partition_kind, kind)
                :: (Hls_names.attr_partition_factor, string_of_int factor)
                :: (Hls_names.attr_partition_dim, string_of_int dim)
                :: base
            | None -> base
          in
          { p with pattrs }
        end
        else p)
      f.params
  in
  (* consumed partition attrs are dropped from the function *)
  let fattrs =
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix k))
      f.fattrs
  in
  { f with params; fattrs }

(** Apply to the named top function (or every function when [top] is
    [None]). *)
let run ~stats ?top (m : Lmodule.t) : Lmodule.t =
  Lmodule.map_funcs
    (fun f ->
      match top with
      | Some t when f.Lmodule.fname <> t -> f
      | _ -> run_func ~stats f)
    m
