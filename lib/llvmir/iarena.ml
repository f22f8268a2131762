(** Packed struct-of-arrays encoding of one function body.  See the
    interface for the layout contract; this file keeps the encoding
    and decoding in one place so the two stay in sync. *)

module Sym = Support.Interner

(* ------------------------------------------------------------------ *)
(* Growable vectors.  OCaml 5.1 has no Dynarray; this is the minimal
   push-only subset the pools need.  ['a] is always an immediate or a
   pointer here, never [float], so [data] stays a flat array. *)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_make dummy cap = { data = Array.make (max 4 cap) dummy; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (2 * v.len) v.data.(0) in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* ------------------------------------------------------------------ *)
(* Opcode words: [tag lor (sub lsl 8) lor flags].                      *)

let tag_ibin = 0
let tag_fbin = 1
let tag_icmp = 2
let tag_fcmp = 3
let tag_alloca = 4
let tag_load = 5
let tag_store = 6
let tag_gep = 7
let tag_cast = 8
let tag_select = 9
let tag_phi = 10
let tag_call = 11
let tag_extractvalue = 12
let tag_insertvalue = 13
let tag_freeze = 14
let tag_ret = 15
let tag_br = 16
let tag_condbr = 17
let tag_switch = 18
let tag_unreachable = 19
let inbounds_bit = 1 lsl 16

let pure_tag t =
  (t >= tag_ibin && t <= tag_fcmp)
  || (t >= tag_gep && t <= tag_freeze && t <> tag_call)

let code_ibinop c = fst Linstr.ibinops.(c)
let code_fbinop c = fst Linstr.fbinops.(c)
let code_icmp c = fst Linstr.icmps.(c)
let code_fcmp c = fst Linstr.fcmps.(c)
let code_cast c = fst Linstr.casts.(c)

(* ------------------------------------------------------------------ *)

(* Constant identity key: floats by bit pattern so NaN constants still
   intern to one index (structural [=] on floats fails on NaN). *)
type const_key = int * int64 * Ltype.t

let const_key (c : Lvalue.const) : const_key =
  match c with
  | CInt (v, ty) -> (0, Int64.of_int v, ty)
  | CFloat (v, ty) -> (1, Int64.bits_of_float v, ty)
  | CNull ty -> (2, 0L, ty)
  | CUndef ty -> (3, 0L, ty)
  | CZero ty -> (4, 0L, ty)

(* Row flag bits, one byte per row. *)
let fl_dead = 1
let fl_dirty = 2

type t = {
  n : int;
  opc : int array;
  res : Sym.t array;
  rty : int array;  (** result type, type-pool index *)
  op_off : int array;
  op_len : int array;
  aux0 : int array;
  aux1 : int array;
  sof : int array;  (** label-pool span start; 0 when no labels *)
  meta : int array;  (** meta-pool index; -1 when [imeta] is empty *)
  blk : int array;
  flags : Bytes.t;
  orig : Linstr.t array;  (** boxed rows: input record, or memoised decode *)
  mutable live : int;
  (* blocks *)
  blk_label : Sym.t array;
  blk_off : int array;  (** length [n_blocks + 1]; block bi spans
                            [blk_off.(bi), blk_off.(bi+1)) *)
  (* shared pools (append-only; {!compact} copies share them) *)
  pool : Lvalue.t vec;  (** operand values, spans per row *)
  pool_cix : int vec;  (** memoised constant-pool index; -1 = not yet *)
  st : Sym.t vec;  (** labels: successors, phi preds, switch cases *)
  xt : int vec;  (** switch case values, aggregate paths *)
  types : Ltype.t vec;
  ty_tbl : (Ltype.t, int) Hashtbl.t;
  consts : Lvalue.const vec;
  const_tbl : (const_key, int) Hashtbl.t;
  strs : string vec;
  str_tbl : (string, int) Hashtbl.t;
  metas : (string * Linstr.meta) list vec;
}

let intern_ty t ty =
  match Hashtbl.find_opt t.ty_tbl ty with
  | Some ix -> ix
  | None ->
      let ix = t.types.len in
      vec_push t.types ty;
      Hashtbl.replace t.ty_tbl ty ix;
      ix

let intern_const t c =
  let k = const_key c in
  match Hashtbl.find_opt t.const_tbl k with
  | Some ix -> ix
  | None ->
      let ix = t.consts.len in
      vec_push t.consts c;
      Hashtbl.replace t.const_tbl k ix;
      ix

let intern_str t s =
  match Hashtbl.find_opt t.str_tbl s with
  | Some ix -> ix
  | None ->
      let ix = t.strs.len in
      vec_push t.strs s;
      Hashtbl.replace t.str_tbl s ix;
      ix

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let of_func (f : Lmodule.func) : t =
  let n =
    List.fold_left
      (fun acc (b : Lmodule.block) -> acc + List.length b.insts)
      0 f.blocks
  in
  let n_blocks = List.length f.blocks in
  let dummy = Linstr.make Linstr.Unreachable in
  let t =
    {
      n;
      opc = Array.make n 0;
      res = Array.make n Sym.empty;
      rty = Array.make n 0;
      op_off = Array.make n 0;
      op_len = Array.make n 0;
      aux0 = Array.make n 0;
      aux1 = Array.make n 0;
      sof = Array.make n 0;
      meta = Array.make n (-1);
      blk = Array.make n 0;
      flags = Bytes.make n '\000';
      orig = Array.make n dummy;
      live = n;
      blk_label = Array.make n_blocks Sym.empty;
      blk_off = Array.make (n_blocks + 1) 0;
      pool = vec_make Lvalue.(Const (CUndef Ltype.Void)) (2 * n);
      pool_cix = vec_make (-1) (2 * n);
      st = vec_make Sym.empty 16;
      xt = vec_make 0 16;
      types = vec_make Ltype.Void 16;
      ty_tbl = Hashtbl.create 16;
      consts = vec_make Lvalue.(CUndef Ltype.Void) 16;
      const_tbl = Hashtbl.create 16;
      strs = vec_make "" 8;
      str_tbl = Hashtbl.create 8;
      metas = vec_make [] 4;
    }
  in
  (* [Void] is type index 0, so zero-initialised [rty] rows are honest. *)
  ignore (intern_ty t Ltype.Void);
  let push_v v =
    vec_push t.pool v;
    vec_push t.pool_cix (-1)
  in
  let k = ref 0 in
  List.iteri
    (fun bi (b : Lmodule.block) ->
      t.blk_label.(bi) <- b.label;
      t.blk_off.(bi) <- !k;
      List.iter
        (fun (i : Linstr.t) ->
          let r = !k in
          incr k;
          t.orig.(r) <- i;
          t.res.(r) <- i.result;
          if i.ty != Ltype.Void then t.rty.(r) <- intern_ty t i.ty;
          if i.imeta <> [] then begin
            t.meta.(r) <- t.metas.len;
            vec_push t.metas i.imeta
          end;
          t.blk.(r) <- bi;
          t.op_off.(r) <- t.pool.len;
          (match i.op with
          | IBin (o, a, b) ->
              t.opc.(r) <- tag_ibin lor (Linstr.ibinop_code o lsl 8);
              push_v a;
              push_v b
          | FBin (o, a, b) ->
              t.opc.(r) <- tag_fbin lor (Linstr.fbinop_code o lsl 8);
              push_v a;
              push_v b
          | Icmp (o, a, b) ->
              t.opc.(r) <- tag_icmp lor (Linstr.icmp_code o lsl 8);
              push_v a;
              push_v b
          | Fcmp (o, a, b) ->
              t.opc.(r) <- tag_fcmp lor (Linstr.fcmp_code o lsl 8);
              push_v a;
              push_v b
          | Alloca (ty, count) ->
              t.opc.(r) <- tag_alloca;
              t.aux0.(r) <- intern_ty t ty;
              t.aux1.(r) <- count
          | Load (ty, p) ->
              t.opc.(r) <- tag_load;
              t.aux0.(r) <- intern_ty t ty;
              push_v p
          | Store (v, p) ->
              t.opc.(r) <- tag_store;
              push_v v;
              push_v p
          | Gep { inbounds; src_ty; base; idxs } ->
              t.opc.(r) <-
                (tag_gep lor if inbounds then inbounds_bit else 0);
              t.aux0.(r) <- intern_ty t src_ty;
              push_v base;
              List.iter push_v idxs
          | Cast (c, v, ty) ->
              t.opc.(r) <- tag_cast lor (Linstr.cast_code c lsl 8);
              t.aux0.(r) <- intern_ty t ty;
              push_v v
          | Select (c, a, b) ->
              t.opc.(r) <- tag_select;
              push_v c;
              push_v a;
              push_v b
          | Phi incoming ->
              t.opc.(r) <- tag_phi;
              t.sof.(r) <- t.st.len;
              List.iter
                (fun (v, l) ->
                  push_v v;
                  vec_push t.st l)
                incoming
          | Call { callee; ret; args } ->
              t.opc.(r) <- tag_call;
              t.aux0.(r) <- intern_str t callee;
              t.aux1.(r) <- intern_ty t ret;
              List.iter push_v args
          | ExtractValue (a, path) ->
              t.opc.(r) <- tag_extractvalue;
              t.aux0.(r) <- t.xt.len;
              t.aux1.(r) <- List.length path;
              push_v a;
              List.iter (vec_push t.xt) path
          | InsertValue (a, v, path) ->
              t.opc.(r) <- tag_insertvalue;
              t.aux0.(r) <- t.xt.len;
              t.aux1.(r) <- List.length path;
              push_v a;
              push_v v;
              List.iter (vec_push t.xt) path
          | Freeze v ->
              t.opc.(r) <- tag_freeze;
              push_v v
          | Ret (Some v) ->
              t.opc.(r) <- tag_ret lor (1 lsl 8);
              push_v v
          | Ret None -> t.opc.(r) <- tag_ret
          | Br l ->
              t.opc.(r) <- tag_br;
              t.sof.(r) <- t.st.len;
              vec_push t.st l
          | CondBr (c, l1, l2) ->
              t.opc.(r) <- tag_condbr;
              t.sof.(r) <- t.st.len;
              push_v c;
              vec_push t.st l1;
              vec_push t.st l2
          | Switch (v, d, cases) ->
              t.opc.(r) <- tag_switch;
              t.sof.(r) <- t.st.len;
              t.aux0.(r) <- t.xt.len;
              t.aux1.(r) <- List.length cases;
              push_v v;
              vec_push t.st d;
              List.iter
                (fun (c, l) ->
                  vec_push t.xt c;
                  vec_push t.st l)
                cases
          | Unreachable -> t.opc.(r) <- tag_unreachable);
          t.op_len.(r) <- t.pool.len - t.op_off.(r))
        b.insts)
    f.blocks;
  t.blk_off.(n_blocks) <- n;
  t

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)

let n_instrs t = t.n
let n_blocks t = Array.length t.blk_label
let block_start t bi = t.blk_off.(bi)
let block_stop t bi = t.blk_off.(bi + 1)
let block_label t bi = t.blk_label.(bi)
let block_of t k = t.blk.(k)
let tag t k = t.opc.(k) land 0xff
let sub t k = (t.opc.(k) lsr 8) land 0xff
let ibinop t k = code_ibinop (sub t k)
let fbinop t k = code_fbinop (sub t k)
let icmp t k = code_icmp (sub t k)
let cast t k = code_cast (sub t k)
let opword t k = t.opc.(k)
let inbounds t k = t.opc.(k) land inbounds_bit <> 0
let result t k = t.res.(k)
let result_ty t k = t.types.data.(t.rty.(k))
let op_off t k = t.op_off.(k)
let op_len t k = t.op_len.(k)
let aux0 t k = t.aux0.(k)
let aux1 t k = t.aux1.(k)
let ty_of_ix t ix = t.types.data.(ix)
let callee t k = t.strs.data.(t.aux0.(k))
let xt t i = t.xt.data.(i)
let pool_len t = t.pool.len
let opnd t s = t.pool.data.(s)

(* Keys pack the operand kind in the low two bits so a register and a
   constant sharing an id never collide.  Registers key by symbol
   alone — SSA gives each one type per function; globals fold in the
   interned type (the same global can be referenced at several pointer
   types), constants are pool-complete already. *)
let key_of_value t (v : Lvalue.t) =
  match v with
  | Lvalue.Reg (n, _) -> (n :> int) lsl 2
  | Lvalue.Global (n, ty) ->
      (intern_ty t ty lsl 24) lxor (((n :> int) lsl 2) lor 1)
  | Lvalue.Const c -> (intern_const t c lsl 2) lor 2

let opnd_key t s =
  match t.pool.data.(s) with
  | Lvalue.Reg (n, _) -> (n :> int) lsl 2
  | Lvalue.Global (n, ty) ->
      (intern_ty t ty lsl 24) lxor (((n :> int) lsl 2) lor 1)
  | Lvalue.Const c ->
      let cix =
        match t.pool_cix.data.(s) with
        | -1 ->
            let ix = intern_const t c in
            t.pool_cix.data.(s) <- ix;
            ix
        | ix -> ix
      in
      (cix lsl 2) lor 2

(* ------------------------------------------------------------------ *)
(* Flags and mutation                                                  *)

let get_fl t k = Char.code (Bytes.unsafe_get t.flags k)
let is_dead t k = get_fl t k land fl_dead <> 0
let is_dirty t k = get_fl t k land fl_dirty <> 0

let kill t k =
  if not (is_dead t k) then begin
    Bytes.unsafe_set t.flags k (Char.chr (get_fl t k lor fl_dead));
    t.live <- t.live - 1
  end

let mark_dirty t k =
  Bytes.unsafe_set t.flags k (Char.chr (get_fl t k lor fl_dirty))

let set_opnd t k s v =
  t.pool.data.(s) <- v;
  t.pool_cix.data.(s) <- -1;
  mark_dirty t k

let push_copy t s =
  vec_push t.pool t.pool.data.(s);
  vec_push t.pool_cix t.pool_cix.data.(s)

let set_span t k ~off ~len =
  t.op_off.(k) <- off;
  t.op_len.(k) <- len;
  mark_dirty t k

let set_aux0 t k ix = t.aux0.(k) <- ix

let set_inbounds t k b =
  t.opc.(k) <-
    (if b then t.opc.(k) lor inbounds_bit
     else t.opc.(k) land lnot inbounds_bit);
  mark_dirty t k

let live_count t = t.live

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let decode_op t k : Linstr.opcode =
  let w = t.opc.(k) in
  let sb = (w lsr 8) land 0xff in
  let o = t.op_off.(k) and l = t.op_len.(k) in
  let v i = t.pool.data.(o + i) in
  match w land 0xff with
  | 0 -> IBin (code_ibinop sb, v 0, v 1)
  | 1 -> FBin (code_fbinop sb, v 0, v 1)
  | 2 -> Icmp (code_icmp sb, v 0, v 1)
  | 3 -> Fcmp (code_fcmp sb, v 0, v 1)
  | 4 -> Alloca (t.types.data.(t.aux0.(k)), t.aux1.(k))
  | 5 -> Load (t.types.data.(t.aux0.(k)), v 0)
  | 6 -> Store (v 0, v 1)
  | 7 ->
      Gep
        {
          inbounds = w land inbounds_bit <> 0;
          src_ty = t.types.data.(t.aux0.(k));
          base = v 0;
          idxs = List.init (l - 1) (fun i -> v (i + 1));
        }
  | 8 -> Cast (code_cast sb, v 0, t.types.data.(t.aux0.(k)))
  | 9 -> Select (v 0, v 1, v 2)
  | 10 ->
      let sof = t.sof.(k) in
      Phi (List.init l (fun i -> (v i, t.st.data.(sof + i))))
  | 11 ->
      Call
        {
          callee = t.strs.data.(t.aux0.(k));
          ret = t.types.data.(t.aux1.(k));
          args = List.init l v;
        }
  | 12 ->
      let xo = t.aux0.(k) in
      ExtractValue (v 0, List.init t.aux1.(k) (fun i -> t.xt.data.(xo + i)))
  | 13 ->
      let xo = t.aux0.(k) in
      InsertValue
        (v 0, v 1, List.init t.aux1.(k) (fun i -> t.xt.data.(xo + i)))
  | 14 -> Freeze (v 0)
  | 15 -> if sb = 1 then Ret (Some (v 0)) else Ret None
  | 16 -> Br t.st.data.(t.sof.(k))
  | 17 -> CondBr (v 0, t.st.data.(t.sof.(k)), t.st.data.(t.sof.(k) + 1))
  | 18 ->
      let sof = t.sof.(k) and xo = t.aux0.(k) in
      Switch
        ( v 0,
          t.st.data.(sof),
          List.init t.aux1.(k) (fun i ->
              (t.xt.data.(xo + i), t.st.data.(sof + 1 + i))) )
  | _ -> Unreachable

let instr t k =
  if is_dirty t k then begin
    let i = { (t.orig.(k)) with op = decode_op t k } in
    t.orig.(k) <- i;
    Bytes.unsafe_set t.flags k (Char.chr (get_fl t k land lnot fl_dirty));
    i
  end
  else t.orig.(k)

let decode_packed t k : Linstr.t =
  {
    result = t.res.(k);
    ty = t.types.data.(t.rty.(k));
    op = decode_op t k;
    imeta = (match t.meta.(k) with -1 -> [] | m -> t.metas.data.(m));
  }

let to_blocks t : Lmodule.block list =
  List.init (n_blocks t) (fun bi ->
      let insts = ref [] in
      for k = t.blk_off.(bi + 1) - 1 downto t.blk_off.(bi) do
        if not (is_dead t k) then insts := instr t k :: !insts
      done;
      { Lmodule.label = t.blk_label.(bi); insts = !insts })

(* ------------------------------------------------------------------ *)

(* Drop dead rows, materialise dirty ones, share the pools (they are
   append-only, so old spans stay valid in the copy). *)
let compact t : t =
  let n' = t.live in
  let nb = n_blocks t in
  let c =
    {
      t with
      n = n';
      opc = Array.make n' 0;
      res = Array.make n' Sym.empty;
      rty = Array.make n' 0;
      op_off = Array.make n' 0;
      op_len = Array.make n' 0;
      aux0 = Array.make n' 0;
      aux1 = Array.make n' 0;
      sof = Array.make n' 0;
      meta = Array.make n' (-1);
      blk = Array.make n' 0;
      flags = Bytes.make n' '\000';
      orig = Array.make n' (Linstr.make Linstr.Unreachable);
      live = n';
      blk_label = Array.copy t.blk_label;
      blk_off = Array.make (nb + 1) 0;
    }
  in
  let k' = ref 0 in
  for bi = 0 to nb - 1 do
    c.blk_off.(bi) <- !k';
    for k = t.blk_off.(bi) to t.blk_off.(bi + 1) - 1 do
      if not (is_dead t k) then begin
        let r = !k' in
        incr k';
        c.opc.(r) <- t.opc.(k);
        c.res.(r) <- t.res.(k);
        c.rty.(r) <- t.rty.(k);
        c.op_off.(r) <- t.op_off.(k);
        c.op_len.(r) <- t.op_len.(k);
        c.aux0.(r) <- t.aux0.(k);
        c.aux1.(r) <- t.aux1.(k);
        c.sof.(r) <- t.sof.(k);
        c.meta.(r) <- t.meta.(k);
        c.blk.(r) <- bi;
        c.orig.(r) <- instr t k
      end
    done
  done;
  c.blk_off.(nb) <- n';
  c

(* ------------------------------------------------------------------ *)

let check t : (unit, string) result =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  let nb = n_blocks t in
  if t.blk_off.(0) <> 0 || t.blk_off.(nb) <> t.n then
    fail "block offsets do not cover the arena";
  for bi = 0 to nb - 1 do
    if t.blk_off.(bi) > t.blk_off.(bi + 1) then
      fail "block %d spans backwards" bi
  done;
  let live = ref 0 in
  for k = 0 to t.n - 1 do
    if not (is_dead t k) then incr live;
    let o = t.op_off.(k) and l = t.op_len.(k) in
    if o < 0 || l < 0 || o + l > t.pool.len then
      fail "row %d operand span [%d,%d) out of pool bounds %d" k o (o + l)
        t.pool.len;
    let bi = t.blk.(k) in
    if bi < 0 || bi >= nb then fail "row %d block %d out of range" k bi
    else if k < t.blk_off.(bi) || k >= t.blk_off.(bi + 1) then
      fail "row %d outside its block %d span" k bi;
    if t.rty.(k) < 0 || t.rty.(k) >= t.types.len then
      fail "row %d result-type index out of range" k;
    let tg = tag t k in
    let st_need =
      if tg = tag_br then 1
      else if tg = tag_condbr then 2
      else if tg = tag_switch then 1 + t.aux1.(k)
      else if tg = tag_phi then l
      else 0
    in
    if st_need > 0 && t.sof.(k) + st_need > t.st.len then
      fail "row %d label span out of bounds" k;
    if
      (tg = tag_switch || tg = tag_extractvalue || tg = tag_insertvalue)
      && t.aux0.(k) + t.aux1.(k) > t.xt.len
    then fail "row %d extra span out of bounds" k
  done;
  if !live <> t.live then
    fail "live count %d does not match %d live rows" t.live !live;
  match !err with None -> Ok () | Some e -> Error e
