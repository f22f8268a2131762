(** Error handling shared by every layer of the compiler stack.

    All front-end, verification and legalization failures are reported
    through {!exception:Compile_error} carrying a structured {!t}. *)

type severity = Error | Warning

type t = {
  severity : severity;
  pass : string;  (** producing component, e.g. ["adaptor.compat"] *)
  message : string;
  context : string option;  (** offending construct, pretty-printed *)
}

exception Compile_error of t

let severity_name = function Error -> "error" | Warning -> "warning"

let make ?(severity = Error) ?context ~pass message =
  { severity; pass; message; context }

let fail ?context ~pass fmt =
  Format.kasprintf
    (fun message -> raise (Compile_error (make ?context ~pass message)))
    fmt

let to_string { severity; pass; message; context } =
  let sev = severity_name severity in
  let ctx = match context with None -> "" | Some c -> "\n  in: " ^ c in
  Printf.sprintf "[%s] %s: %s%s" pass sev message ctx

(** [guard ~pass cond msg] raises when [cond] is false. *)
let guard ?context ~pass cond msg =
  if not cond then fail ?context ~pass "%s" msg
