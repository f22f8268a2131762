(** Structural and semantic verification of multi-level IR.

    Checks performed:
    - SSA: every value has exactly one definition; operands are defined
      by an earlier op, a block parameter or an enclosing scope;
    - dialect signatures: operand/result/region arities match the
      {!Dialect} registry; unknown dialects are rejected;
    - terminators: every region's single block ends with the right
      terminator ([affine.yield] / [scf.yield] / [func.return]) whose
      operand types match the parent's results;
    - op-specific typing rules for arith/affine/scf/memref ops. *)

open Ir

let fail = Support.Err.fail ~pass:"mhir.verifier"

type scope = { defined : (int, unit) Hashtbl.t }

let define scope (v : value) =
  if Hashtbl.mem scope.defined v.id then
    fail "value %%%d defined twice" v.id;
  Hashtbl.replace scope.defined v.id ()

let check_defined scope op (v : value) =
  if not (Hashtbl.mem scope.defined v.id) then
    fail ~context:op.name "operand %%%d used before definition" v.id

(* A required attribute read with [as_kind]: missing or of another
   kind, it is a verifier failure rather than [Invalid_argument]. *)
let attr (o : op) key as_kind =
  match Attr.find o.attrs key with
  | None -> fail "%s: missing attribute %s" o.name key
  | Some a -> (
      try as_kind a
      with Invalid_argument _ ->
        fail "%s: attribute %s has the wrong kind: %s" o.name key
          (Attr.to_string a))

let expect_ty what v ty =
  if not (Types.equal v.ty ty) then
    fail "%s: expected %s, got %s" what (Types.to_string ty)
      (Types.to_string v.ty)

let check_signature (o : op) =
  match Dialect.lookup o.name with
  | None -> fail "unknown operation %S" o.name
  | Some s ->
      if not (Dialect.arity_ok s.operands (List.length o.operands)) then
        fail "%s: bad operand count %d" o.name (List.length o.operands);
      if not (Dialect.arity_ok s.results (List.length o.results)) then
        fail "%s: bad result count %d" o.name (List.length o.results);
      if s.regions <> List.length o.regions then
        fail "%s: expected %d regions, got %d" o.name s.regions
          (List.length o.regions)

(** Op-specific typing rules beyond arity. *)
let check_op_types (o : op) =
  let binop_same kind =
    match (o.operands, o.results) with
    | [ a; b ], [ r ] ->
        if not (Types.equal a.ty b.ty) then
          fail "%s: operand types differ" o.name;
        if not (Types.equal a.ty r.ty) then
          fail "%s: result type differs from operands" o.name;
        (match kind with
        | `Int when not (Types.is_int a.ty) ->
            fail "%s: expects integer operands" o.name
        | `Float when not (Types.is_float a.ty) ->
            fail "%s: expects float operands" o.name
        | _ -> ())
    | _ -> ()
  in
  match o.name with
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi"
  | "arith.remsi" | "arith.divui" | "arith.remui" | "arith.floordivsi"
  | "arith.andi" | "arith.ori" | "arith.xori"
  | "arith.shli" | "arith.shrsi" | "arith.shrui"
  | "arith.maxsi" | "arith.minsi" | "arith.maxui" | "arith.minui" ->
      binop_same `Int
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
  | "arith.maximumf" | "arith.minimumf" ->
      binop_same `Float
  | "arith.cmpi" | "arith.cmpf" -> (
      ignore (attr o "predicate" Attr.as_str);
      match o.results with
      | [ r ] -> expect_ty (o.name ^ " result") r Types.I1
      | _ -> ())
  | "arith.constant" -> (
      let v = attr o "value" Fun.id in
      match (v, o.results) with
      | Attr.Int _, [ r ] when Types.is_int r.ty -> ()
      | Attr.Float _, [ r ] when Types.is_float r.ty -> ()
      | _ -> fail "arith.constant: attribute/result type mismatch")
  | "arith.select" -> (
      match o.operands with
      | [ c; a; b ] ->
          expect_ty "arith.select condition" c Types.I1;
          if not (Types.equal a.ty b.ty) then
            fail "arith.select: branch types differ"
      | _ -> ())
  | "affine.load" | "memref.load" -> (
      match (o.operands, o.results) with
      | m :: idxs, [ r ] -> (
          match m.ty with
          | Types.Memref (shape, elem) ->
              expect_ty "load result" r elem;
              (match o.name with
              | "affine.load" ->
                  let map = attr o "map" Attr.as_map in
                  if Affine_map.num_results map <> List.length shape then
                    fail "affine.load: map/rank mismatch";
                  if
                    List.length idxs
                    <> map.Affine_map.num_dims + map.Affine_map.num_syms
                  then fail "affine.load: map operand count mismatch"
              | _ ->
                  if List.length idxs <> List.length shape then
                    fail "memref.load: rank mismatch");
              List.iter (fun i -> expect_ty "subscript" i Types.Index) idxs
          | _ -> fail "%s: base is not a memref" o.name)
      | _ -> ())
  | "affine.store" | "memref.store" -> (
      match o.operands with
      | v :: m :: idxs -> (
          match m.ty with
          | Types.Memref (shape, elem) ->
              expect_ty "stored value" v elem;
              (match o.name with
              | "affine.store" ->
                  let map = attr o "map" Attr.as_map in
                  if Affine_map.num_results map <> List.length shape then
                    fail "affine.store: map/rank mismatch"
              | _ ->
                  if List.length idxs <> List.length shape then
                    fail "memref.store: rank mismatch");
              List.iter (fun i -> expect_ty "subscript" i Types.Index) idxs
          | _ -> fail "%s: base is not a memref" o.name)
      | _ -> ())
  | "affine.for" ->
      let lb = attr o "lower_map" Attr.as_map in
      let ub = attr o "upper_map" Attr.as_map in
      let step = attr o "step" Attr.as_int in
      if step <= 0 then fail "affine.for: step must be positive";
      if Affine_map.num_results lb <> 1 || Affine_map.num_results ub <> 1 then
        fail "affine.for: bound maps must have one result";
      let blk = entry_block (List.hd o.regions) in
      (match blk.params with
      | iv :: iter_params ->
          expect_ty "induction variable" iv Types.Index;
          if List.length iter_params <> List.length o.operands then
            fail "affine.for: iter_args/operand count mismatch";
          List.iter2
            (fun p a ->
              if not (Types.equal p.ty a.ty) then
                fail "affine.for: iter_arg type mismatch")
            iter_params o.operands;
          if List.length o.results <> List.length o.operands then
            fail "affine.for: result/iter_arg count mismatch"
      | [] -> fail "affine.for: region must have an induction variable")
  | "scf.for" -> (
      match o.operands with
      | lb :: ub :: step :: iters ->
          if not (Types.is_int lb.ty) then fail "scf.for: non-integer bound";
          if not (Types.equal lb.ty ub.ty && Types.equal lb.ty step.ty) then
            fail "scf.for: bound type mismatch";
          let blk = entry_block (List.hd o.regions) in
          (match blk.params with
          | iv :: iter_params ->
              if not (Types.equal iv.ty lb.ty) then
                fail "scf.for: induction variable type mismatch";
              if List.length iter_params <> List.length iters then
                fail "scf.for: iter_args count mismatch"
          | [] -> fail "scf.for: region must have an induction variable")
      | _ -> ())
  | "scf.if" ->
      expect_ty "scf.if condition" (List.hd o.operands) Types.I1
  | "memref.alloc" | "memref.alloca" -> (
      match o.results with
      | [ r ] when Types.is_memref r.ty -> ()
      | _ -> fail "%s: result must be a memref" o.name)
  | _ -> ()

let rec verify_region scope ~terminator ~yield_tys (r : region) =
  match r.blocks with
  | [ blk ] ->
      List.iter (define scope) blk.params;
      let n = List.length blk.ops in
      if n = 0 then fail "empty block (missing terminator)";
      List.iteri
        (fun i (o : op) ->
          check_signature o;
          List.iter (check_defined scope o) o.operands;
          check_op_types o;
          let is_term = Dialect.is_terminator o.name in
          if is_term && i <> n - 1 then
            fail "%s: terminator not at end of block" o.name;
          if i = n - 1 then begin
            if not is_term then fail "block does not end with a terminator";
            if o.name <> terminator then
              fail "expected terminator %s, found %s" terminator o.name;
            let tys = List.map (fun (v : value) -> v.ty) o.operands in
            if tys <> yield_tys then
              fail "%s: yielded types (%s) do not match expected (%s)" o.name
                (Types.fn_to_string { inputs = tys; outputs = [] })
                (Types.fn_to_string { inputs = yield_tys; outputs = [] })
          end;
          verify_op_regions scope o;
          List.iter (define scope) o.results)
        blk.ops
  | _ -> fail "regions must contain exactly one block"

and verify_op_regions scope (o : op) =
  let result_tys = List.map (fun (v : value) -> v.ty) o.results in
  match o.name with
  | "affine.for" ->
      verify_region scope ~terminator:"affine.yield" ~yield_tys:result_tys
        (List.hd o.regions)
  | "scf.for" ->
      verify_region scope ~terminator:"scf.yield" ~yield_tys:result_tys
        (List.hd o.regions)
  | "scf.if" ->
      List.iter
        (verify_region scope ~terminator:"scf.yield" ~yield_tys:result_tys)
        o.regions
  | _ ->
      if o.regions <> [] then
        fail "%s: unexpected nested regions" o.name

let verify_func (f : func) =
  let scope = { defined = Hashtbl.create 64 } in
  List.iter (define scope) f.args;
  let body = { blocks = [ { params = []; ops = (entry_block f.body).ops } ] } in
  verify_region scope ~terminator:"func.return" ~yield_tys:f.ret_tys body

(** Verify a module; raises {!Support.Err.Compile_error} on the first
    violation.  Also checks [func.call] targets exist with matching
    types. *)
let verify_module (m : modul) =
  let names = List.map (fun f -> f.fname) m.funcs in
  let dup =
    List.exists
      (fun n -> List.length (List.filter (( = ) n) names) > 1)
      names
  in
  if dup then fail "duplicate function names in module";
  List.iter verify_func m.funcs;
  List.iter
    (fun f ->
      walk_func
        (fun o ->
          if o.name = "func.call" then begin
            let callee = attr o "callee" Attr.as_str in
            match find_func m callee with
            | None -> fail "call to unknown function @%s" callee
            | Some g ->
                let arg_tys = List.map (fun (v : value) -> v.ty) o.operands in
                let param_tys = List.map (fun (v : value) -> v.ty) g.args in
                if arg_tys <> param_tys then
                  fail "call to @%s: argument types mismatch" callee;
                let res_tys = List.map (fun (v : value) -> v.ty) o.results in
                if res_tys <> g.ret_tys then
                  fail "call to @%s: result types mismatch" callee
          end)
        f)
    m.funcs
