(** Accumulating diagnostics engine.

    {!Err} is fail-fast: the first problem raises {!Err.Compile_error}
    and compilation stops.  That is right for invariant violations but
    wrong for {e analysis} output — a lint pass or compatibility check
    should report everything it finds in one run.  This module carries
    such findings: each diagnostic has a stable rule ID ([HLS001], ...),
    a severity, a location, and renders to text or JSON (through
    {!Json}, whose {!codec} the serve protocol reuses).  A batch of
    diagnostics can be promoted ([-Werror]-style), summarized, and
    turned into a process exit code. *)

type severity = Note | Warning | Error

type t = {
  rule : string;  (** stable rule ID, e.g. ["HLS001"] *)
  severity : severity;
  func : string option;  (** enclosing function, without [@] *)
  location : string option;  (** block / register / parameter, without sigil *)
  message : string;
  hint : string option;  (** suggested fix, if any *)
}

(** Raised by strict-mode drivers when error-severity diagnostics
    remain; carries the {e complete} accumulated list, not just the
    first finding. *)
exception Failed of t list

let severity_name = function
  | Note -> "note"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Note -> 0 | Warning -> 1 | Error -> 2

let make ?func ?location ?hint ~severity ~rule fmt =
  Format.kasprintf
    (fun message -> { rule; severity; func; location; hint; message })
    fmt

let note ?func ?location ?hint ~rule fmt =
  make ?func ?location ?hint ~severity:Note ~rule fmt

let warning ?func ?location ?hint ~rule fmt =
  make ?func ?location ?hint ~severity:Warning ~rule fmt

let error ?func ?location ?hint ~rule fmt =
  make ?func ?location ?hint ~severity:Error ~rule fmt

(* ------------------------------------------------------------------ *)
(* Accumulation                                                       *)
(* ------------------------------------------------------------------ *)

(** An accumulating buffer: passes add as they go, the driver reads the
    batch at the end. *)
type buffer = { mutable items : t list (* reversed *) }

let create () = { items = [] }
let add (b : buffer) (d : t) = b.items <- d :: b.items
let add_all (b : buffer) (ds : t list) = List.iter (add b) ds
let contents (b : buffer) : t list = List.rev b.items

(* ------------------------------------------------------------------ *)
(* Batch queries                                                      *)
(* ------------------------------------------------------------------ *)

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let errors ds = count Error ds
let warnings ds = count Warning ds

let max_severity (ds : t list) : severity option =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> Some d.severity
      | Some s ->
          Some (if severity_rank d.severity > severity_rank s then d.severity else s))
    None ds

(** Exit code a CLI should return for this batch:
    0 = clean or notes only, 1 = warnings, 2 = errors. *)
let exit_code (ds : t list) : int =
  match max_severity ds with
  | Some Error -> 2
  | Some Warning -> 1
  | _ -> 0

(** [-Werror]: every warning becomes an error. *)
let promote_warnings (ds : t list) : t list =
  List.map
    (fun d -> if d.severity = Warning then { d with severity = Error } else d)
    ds

(** Stable presentation order: severity (errors first), then rule ID,
    function and location; input order breaks remaining ties. *)
let sort (ds : t list) : t list =
  List.stable_sort
    (fun a b ->
      let c = compare (severity_rank b.severity) (severity_rank a.severity) in
      if c <> 0 then c
      else
        let c = compare a.rule b.rule in
        if c <> 0 then c else compare (a.func, a.location) (b.func, b.location))
    ds

(* ------------------------------------------------------------------ *)
(* Text rendering                                                     *)
(* ------------------------------------------------------------------ *)

let where_string (d : t) =
  match (d.func, d.location) with
  | Some f, Some l -> Printf.sprintf "@%s:%%%s" f l
  | Some f, None -> "@" ^ f
  | None, Some l -> "%" ^ l
  | None, None -> "-"

let to_string (d : t) =
  Printf.sprintf "%s %-7s %-20s %s%s" d.rule
    (severity_name d.severity)
    (where_string d) d.message
    (match d.hint with None -> "" | Some h -> "\n        hint: " ^ h)

let summary (ds : t list) =
  Printf.sprintf "%d error(s), %d warning(s), %d note(s)" (errors ds)
    (warnings ds) (count Note ds)

(** Full text report: sorted diagnostics plus a summary line. *)
let render (ds : t list) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string b (to_string d);
      Buffer.add_char b '\n')
    (sort ds);
  Buffer.add_string b (summary ds);
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                     *)
(* ------------------------------------------------------------------ *)

let codec : t Json.codec =
  Json.(
    record (fun rule severity func location message hint ->
        { rule; severity; func; location; message; hint })
    |> field "rule" string (fun d -> d.rule)
    |> field "severity" (enum severity_name [ Note; Warning; Error ]) (fun d ->
           d.severity)
    |> opt "function" string (fun d -> d.func)
    |> opt "location" string (fun d -> d.location)
    |> field "message" string (fun d -> d.message)
    |> opt "hint" string (fun d -> d.hint)
    |> seal)

let diag_to_json (d : t) = Json.to_string (codec.enc d)

(** Whole batch as one JSON object:
    [{"diagnostics": [...], "errors": n, "warnings": n, "notes": n}]. *)
let to_json (ds : t list) : string =
  let ds = sort ds in
  Json.to_string
    (Json.Obj
       [
         ("diagnostics", (Json.list codec).enc ds);
         ("errors", Json.Int (errors ds));
         ("warnings", Json.Int (warnings ds));
         ("notes", Json.Int (count Note ds));
       ])

(* ------------------------------------------------------------------ *)
(* Interop with the fail-fast layer                                   *)
(* ------------------------------------------------------------------ *)

let of_err_severity = function Err.Error -> Error | Err.Warning -> Warning

(** Wrap an {!Err.t} (e.g. a caught {!Err.Compile_error}) as a
    diagnostic under the given rule ID. *)
let of_err ~rule (e : Err.t) : t =
  {
    rule;
    severity = of_err_severity e.Err.severity;
    func = None;
    location = None;
    message = Printf.sprintf "[%s] %s" e.Err.pass e.Err.message;
    hint = Option.map (fun c -> "in: " ^ c) e.Err.context;
  }
