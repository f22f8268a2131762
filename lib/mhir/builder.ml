(** Typed smart constructors for building IR, dialect by dialect.

    A builder owns the SSA id counter and a stack of op accumulators;
    region-creating ops ([affine_for], [scf_if], ...) take OCaml
    closures that receive the region's block arguments and return the
    values to yield, so nesting in the source mirrors nesting in the
    IR.  All constructors type-check their operands eagerly. *)

open Ir

type t = {
  mutable next_id : int;
  mutable scopes : op list ref list;  (** head = innermost region *)
}

let create () = { next_id = 0; scopes = [ ref [] ] }

let new_value b ?(hint = "") ty =
  let id = b.next_id in
  b.next_id <- b.next_id + 1;
  { id; ty; hint }

let emit b op =
  match b.scopes with
  | scope :: _ -> scope := op :: !scope
  | [] -> invalid_arg "Builder.emit: no open scope"

(** Run [f] with a fresh op accumulator; return its ops. *)
let collect b f =
  let scope = ref [] in
  b.scopes <- scope :: b.scopes;
  let r = f () in
  (match b.scopes with
  | _ :: rest -> b.scopes <- rest
  | [] -> assert false);
  (List.rev !scope, r)

let fail = Support.Err.fail ~pass:"builder"

let check_int what v =
  if not (Types.is_int v.ty) then
    fail "%s: expected integer operand, got %s" what (Types.to_string v.ty)

let check_float what v =
  if not (Types.is_float v.ty) then
    fail "%s: expected float operand, got %s" what (Types.to_string v.ty)

let check_same what a c =
  if not (Types.equal a.ty c.ty) then
    fail "%s: operand types differ (%s vs %s)" what (Types.to_string a.ty)
      (Types.to_string c.ty)

(* ------------------------------------------------------------------ *)
(* arith                                                              *)
(* ------------------------------------------------------------------ *)

let constant_i b ?(ty = Types.Index) c =
  let r = new_value b ty in
  emit b
    {
      name = "arith.constant";
      operands = [];
      results = [ r ];
      attrs = [ ("value", Attr.Int c) ];
      regions = [];
    };
  r

let constant_f b ?(ty = Types.F32) f =
  let r = new_value b ty in
  emit b
    {
      name = "arith.constant";
      operands = [];
      results = [ r ];
      attrs = [ ("value", Attr.Float f) ];
      regions = [];
    };
  r

let binop b name check x y =
  check name x;
  check name y;
  check_same name x y;
  let r = new_value b x.ty in
  emit b { name; operands = [ x; y ]; results = [ r ]; attrs = []; regions = [] };
  r

let addi b x y = binop b "arith.addi" check_int x y
let subi b x y = binop b "arith.subi" check_int x y
let muli b x y = binop b "arith.muli" check_int x y
let divsi b x y = binop b "arith.divsi" check_int x y
let remsi b x y = binop b "arith.remsi" check_int x y
let divui b x y = binop b "arith.divui" check_int x y
let remui b x y = binop b "arith.remui" check_int x y
let floordivsi b x y = binop b "arith.floordivsi" check_int x y
let andi b x y = binop b "arith.andi" check_int x y
let ori b x y = binop b "arith.ori" check_int x y
let xori b x y = binop b "arith.xori" check_int x y
let shli b x y = binop b "arith.shli" check_int x y
let shrsi b x y = binop b "arith.shrsi" check_int x y
let shrui b x y = binop b "arith.shrui" check_int x y
let maxsi b x y = binop b "arith.maxsi" check_int x y
let minsi b x y = binop b "arith.minsi" check_int x y
let maxui b x y = binop b "arith.maxui" check_int x y
let minui b x y = binop b "arith.minui" check_int x y
let addf b x y = binop b "arith.addf" check_float x y
let subf b x y = binop b "arith.subf" check_float x y
let mulf b x y = binop b "arith.mulf" check_float x y
let divf b x y = binop b "arith.divf" check_float x y
let maxf b x y = binop b "arith.maximumf" check_float x y
let minf b x y = binop b "arith.minimumf" check_float x y

type cmpi_pred = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

let string_of_cmpi = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle"
  | Sgt -> "sgt" | Sge -> "sge" | Ult -> "ult" | Ule -> "ule"
  | Ugt -> "ugt" | Uge -> "uge"

let cmpi_of_string = function
  | "eq" -> Eq | "ne" -> Ne | "slt" -> Slt | "sle" -> Sle
  | "sgt" -> Sgt | "sge" -> Sge | "ult" -> Ult | "ule" -> Ule
  | "ugt" -> Ugt | "uge" -> Uge
  | s -> invalid_arg ("Builder.cmpi_of_string: " ^ s)

type cmpf_pred = Oeq | One | Olt | Ole | Ogt | Oge

let string_of_cmpf = function
  | Oeq -> "oeq" | One -> "one" | Olt -> "olt" | Ole -> "ole"
  | Ogt -> "ogt" | Oge -> "oge"

let cmpf_of_string = function
  | "oeq" -> Oeq | "one" -> One | "olt" -> Olt | "ole" -> Ole
  | "ogt" -> Ogt | "oge" -> Oge
  | s -> invalid_arg ("Builder.cmpf_of_string: " ^ s)

let cmpi b pred x y =
  check_int "arith.cmpi" x;
  check_same "arith.cmpi" x y;
  let r = new_value b Types.I1 in
  emit b
    {
      name = "arith.cmpi";
      operands = [ x; y ];
      results = [ r ];
      attrs = [ ("predicate", Attr.Str (string_of_cmpi pred)) ];
      regions = [];
    };
  r

let cmpf b pred x y =
  check_float "arith.cmpf" x;
  check_same "arith.cmpf" x y;
  let r = new_value b Types.I1 in
  emit b
    {
      name = "arith.cmpf";
      operands = [ x; y ];
      results = [ r ];
      attrs = [ ("predicate", Attr.Str (string_of_cmpf pred)) ];
      regions = [];
    };
  r

let select b cond x y =
  if not (Types.equal cond.ty Types.I1) then
    fail "arith.select: condition must be i1";
  check_same "arith.select" x y;
  let r = new_value b x.ty in
  emit b
    {
      name = "arith.select";
      operands = [ cond; x; y ];
      results = [ r ];
      attrs = [];
      regions = [];
    };
  r

let cast b name check_src v ty =
  check_src name v;
  let r = new_value b ty in
  emit b { name; operands = [ v ]; results = [ r ]; attrs = []; regions = [] };
  r

let index_cast b v ty = cast b "arith.index_cast" check_int v ty
let sitofp b v ty = cast b "arith.sitofp" check_int v ty

(* ------------------------------------------------------------------ *)
(* memref                                                             *)
(* ------------------------------------------------------------------ *)

let memref_alloc b ty =
  if not (Types.is_memref ty) then fail "memref.alloc: result must be memref";
  let r = new_value b ty in
  emit b
    {
      name = "memref.alloc";
      operands = [];
      results = [ r ];
      attrs = [];
      regions = [];
    };
  r

(* ------------------------------------------------------------------ *)
(* affine                                                             *)
(* ------------------------------------------------------------------ *)

let affine_load b mem ~map operands =
  (match mem.ty with
  | Types.Memref (shape, _) ->
      if Affine_map.num_results map <> List.length shape then
        fail "affine.load: map result count must equal memref rank"
  | _ -> fail "affine.load: base must be a memref");
  let elem = match mem.ty with Types.Memref (_, e) -> e | _ -> assert false in
  let r = new_value b elem in
  emit b
    {
      name = "affine.load";
      operands = mem :: operands;
      results = [ r ];
      attrs = [ ("map", Attr.Map map) ];
      regions = [];
    };
  r

let affine_store b v mem ~map operands =
  (match mem.ty with
  | Types.Memref (shape, elem) ->
      if Affine_map.num_results map <> List.length shape then
        fail "affine.store: map result count must equal memref rank";
      if not (Types.equal v.ty elem) then
        fail "affine.store: value/element type mismatch"
  | _ -> fail "affine.store: base must be a memref");
  emit b
    {
      name = "affine.store";
      operands = v :: mem :: operands;
      results = [];
      attrs = [ ("map", Attr.Map map) ];
      regions = [];
    }

(** Identity-subscript conveniences: [A[i, j]]. *)
let load b mem idxs =
  affine_load b mem ~map:(Affine_map.identity (List.length idxs)) idxs

let store b v mem idxs =
  affine_store b v mem ~map:(Affine_map.identity (List.length idxs)) idxs

(** [affine_for b ~lb ~ub ?step ?iters ?attrs body] builds an
    [affine.for] with constant bounds.  [body b iv iter_vals] returns
    the values to yield (must match [iters] in type).  Returns the
    loop's results (one per iter arg). *)
let affine_for b ?(step = 1) ?(iters = []) ?(attrs = []) ~lb ~ub body =
  if step <= 0 then fail "affine.for: step must be positive";
  let iv = new_value b ~hint:"i" Types.Index in
  let iter_params = List.map (fun v -> new_value b v.ty) iters in
  let ops, yielded =
    collect b (fun () ->
        let ys = body b iv iter_params in
        emit b
          {
            name = "affine.yield";
            operands = ys;
            results = [];
            attrs = [];
            regions = [];
          };
        ys)
  in
  List.iter2
    (fun i y ->
      if not (Types.equal i.ty y.ty) then
        fail "affine.for: yielded type does not match iter_arg type")
    iters yielded;
  let results = List.map (fun v -> new_value b v.ty) iters in
  emit b
    {
      name = "affine.for";
      operands = iters;
      results;
      attrs =
        attrs
        @ [
            ("lower_map", Attr.Map (Affine_map.constant lb));
            ("upper_map", Attr.Map (Affine_map.constant ub));
            ("step", Attr.Int step);
            ("lower_operands", Attr.Int 0);
          ];
      regions = [ region1 ~params:(iv :: iter_params) ops ];
    };
  results

(* ------------------------------------------------------------------ *)
(* scf                                                                *)
(* ------------------------------------------------------------------ *)

let scf_for b ~lb ~ub ~step ?(iters = []) body =
  check_int "scf.for" lb;
  check_int "scf.for" ub;
  check_int "scf.for" step;
  let iv = new_value b ~hint:"i" lb.ty in
  let iter_params = List.map (fun v -> new_value b v.ty) iters in
  let ops, _ =
    collect b (fun () ->
        let ys = body b iv iter_params in
        emit b
          { name = "scf.yield"; operands = ys; results = []; attrs = []; regions = [] })
  in
  let results = List.map (fun v -> new_value b v.ty) iters in
  emit b
    {
      name = "scf.for";
      operands = lb :: ub :: step :: iters;
      results;
      attrs = [];
      regions = [ region1 ~params:(iv :: iter_params) ops ];
    };
  results

let scf_if b cond ~result_tys ~then_ ~else_ =
  if not (Types.equal cond.ty Types.I1) then fail "scf.if: condition must be i1";
  let build branch =
    let ops, _ =
      collect b (fun () ->
          let ys = branch b in
          emit b
            { name = "scf.yield"; operands = ys; results = []; attrs = []; regions = [] })
    in
    region1 ~params:[] ops
  in
  let then_r = build then_ in
  let else_r = build else_ in
  let results = List.map (fun ty -> new_value b ty) result_tys in
  emit b
    {
      name = "scf.if";
      operands = [ cond ];
      results;
      attrs = [];
      regions = [ then_r; else_r ];
    };
  results

(* ------------------------------------------------------------------ *)
(* func                                                               *)
(* ------------------------------------------------------------------ *)

let call b callee ~ret_tys args =
  let results = List.map (fun ty -> new_value b ty) ret_tys in
  emit b
    {
      name = "func.call";
      operands = args;
      results;
      attrs = [ ("callee", Attr.Str callee) ];
      regions = [];
    };
  results

let ret b vals =
  emit b
    { name = "func.return"; operands = vals; results = []; attrs = []; regions = [] }

(** Build a whole function.  [body b args] must end by calling {!ret}
    (or return unit for implicit empty return of a void function). *)
let func b name ~args ~ret_tys ?(fattrs = []) body =
  let arg_vals = List.map (fun (hint, ty) -> new_value b ~hint ty) args in
  let ops, _ =
    collect b (fun () ->
        body b arg_vals;
        ())
  in
  let ops =
    match List.rev ops with
    | last :: _ when last.name = "func.return" -> ops
    | _ ->
        ops
        @ [ { name = "func.return"; operands = []; results = []; attrs = []; regions = [] } ]
  in
  { fname = name; args = arg_vals; ret_tys; body = region1 ~params:[] ops; fattrs }
