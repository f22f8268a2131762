(** Registry of known operations and their structural signatures.

    [signature] captures what the generic verifier can check without
    dialect knowledge: operand/result/region counts.  Semantic checks
    (types, attribute well-formedness) live in {!Verifier}. *)

type arity = Exact of int | AtLeast of int

type signature = {
  operands : arity;
  results : arity;
  regions : int;
  terminator : bool;  (** must appear last in its block *)
  pure : bool;  (** no side effects — candidate for DCE *)
}

let sig_ ?(operands = Exact 0) ?(results = Exact 0) ?(regions = 0)
    ?(terminator = false) ?(pure = false) () =
  { operands; results; regions; terminator; pure }

let registry : (string * signature) list =
  let binop = sig_ ~operands:(Exact 2) ~results:(Exact 1) ~pure:true () in
  let unop = sig_ ~operands:(Exact 1) ~results:(Exact 1) ~pure:true () in
  [
    ("arith.constant", sig_ ~results:(Exact 1) ~pure:true ());
    ("arith.addi", binop);
    ("arith.subi", binop);
    ("arith.muli", binop);
    ("arith.divsi", binop);
    ("arith.remsi", binop);
    ("arith.andi", binop);
    ("arith.ori", binop);
    ("arith.xori", binop);
    ("arith.divui", binop);
    ("arith.remui", binop);
    ("arith.floordivsi", binop);
    ("arith.shli", binop);
    ("arith.shrsi", binop);
    ("arith.shrui", binop);
    ("arith.maxsi", binop);
    ("arith.minsi", binop);
    ("arith.maxui", binop);
    ("arith.minui", binop);
    ("arith.addf", binop);
    ("arith.subf", binop);
    ("arith.mulf", binop);
    ("arith.divf", binop);
    ("arith.maximumf", binop);
    ("arith.minimumf", binop);
    ("arith.negf", unop);
    ("arith.cmpi", sig_ ~operands:(Exact 2) ~results:(Exact 1) ~pure:true ());
    ("arith.cmpf", sig_ ~operands:(Exact 2) ~results:(Exact 1) ~pure:true ());
    ("arith.select", sig_ ~operands:(Exact 3) ~results:(Exact 1) ~pure:true ());
    ("arith.index_cast", unop);
    ("arith.sitofp", unop);
    ("arith.fptosi", unop);
    ("arith.extf", unop);
    ("arith.truncf", unop);
    ("affine.for",
     sig_ ~operands:(AtLeast 0) ~results:(AtLeast 0) ~regions:1 ());
    ("affine.yield", sig_ ~operands:(AtLeast 0) ~terminator:true ());
    ("affine.load",
     sig_ ~operands:(AtLeast 1) ~results:(Exact 1) ~pure:true ());
    ("affine.store", sig_ ~operands:(AtLeast 2) ());
    ("affine.apply",
     sig_ ~operands:(AtLeast 0) ~results:(Exact 1) ~pure:true ());
    ("scf.for", sig_ ~operands:(AtLeast 3) ~results:(AtLeast 0) ~regions:1 ());
    ("scf.if", sig_ ~operands:(Exact 1) ~results:(AtLeast 0) ~regions:2 ());
    ("scf.yield", sig_ ~operands:(AtLeast 0) ~terminator:true ());
    ("memref.alloc", sig_ ~results:(Exact 1) ());
    ("memref.alloca", sig_ ~results:(Exact 1) ());
    ("memref.dealloc", sig_ ~operands:(Exact 1) ());
    ("memref.load", sig_ ~operands:(AtLeast 1) ~results:(Exact 1) ~pure:true ());
    ("memref.store", sig_ ~operands:(AtLeast 2) ());
    ("func.call", sig_ ~operands:(AtLeast 0) ~results:(AtLeast 0) ());
    ("func.return", sig_ ~operands:(AtLeast 0) ~terminator:true ());
  ]

(* [registry] as a table, built once at load: each name's first
   binding, read-only afterwards, so any domain may query it *)
let table : (string, signature) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (name, s) -> if not (Hashtbl.mem t name) then Hashtbl.add t name s)
    registry;
  t

let lookup name = Hashtbl.find_opt table name

let lookup_exn name =
  match lookup name with
  | Some s -> s
  | None -> invalid_arg ("Dialect.lookup_exn: unknown op " ^ name)

let is_known name = lookup name <> None
let is_terminator name =
  match lookup name with Some s -> s.terminator | None -> false

let is_pure name = match lookup name with Some s -> s.pure | None -> false

let arity_ok arity n =
  match arity with Exact k -> n = k | AtLeast k -> n >= k

(** Dialect prefix of an op name (["affine.for"] -> ["affine"]). *)
let dialect_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name
