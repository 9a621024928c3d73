open Parsetree

type ctx = {
  file_exists : string -> bool;
  parallel_reachable : string -> bool;
}

type pass = {
  id : string;
  title : string;
  doc : string;
  runs_when_typed : bool;
      (* false: this pass is the parse-tier fallback for a typed pass and is
         skipped on files the typed tier covered; true: it has no typed
         counterpart (e.g. the .mli-existence check) and always runs *)
  check : ctx -> Lint_source.t -> Lint_finding.t list;
}

(* ---- shared helpers ---- *)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

(* [dirs] as a contiguous run of the path's directory segments: ["lib"]
   matches "lib/graph/csr.ml" and "../lib/graph/csr.ml" but not "bin/x.ml". *)
let under ~dirs path =
  let rec is_prefix p s =
    match (p, s) with
    | [], _ -> true
    | _, [] -> false
    | x :: p', y :: s' -> String.equal x y && is_prefix p' s'
  in
  let rec anywhere s =
    match s with [] -> false | _ :: tl -> is_prefix dirs s || anywhere tl
  in
  match List.rev (segments path) with
  | [] -> false
  | _basename :: rev_dirs -> anywhere (List.rev rev_dirs)

let in_lib path = under ~dirs:[ "lib" ] path

let is_file pattern path = Lint_allow.path_matches ~pattern path

(* Longident.flatten raises on functor applications; fold by hand. *)
let rec flatten_longident acc = function
  | Longident.Lident s -> Some (s :: acc)
  | Longident.Ldot (li, s) -> flatten_longident (s :: acc) li
  | Longident.Lapply _ -> None

let ident_path txt =
  match flatten_longident [] txt with
  | Some ("Stdlib" :: rest) -> Some rest
  | p -> p

let head_of expr =
  match expr.pexp_desc with Pexp_ident { txt; _ } -> ident_path txt | _ -> None

let loc_line_col (loc : Location.t) =
  (loc.loc_start.Lexing.pos_lnum, loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol)

let finding ~pass ~severity (src : Lint_source.t) loc msg =
  let line, col = loc_line_col loc in
  Lint_finding.make ~pass ~file:src.Lint_source.path ~line ~col ~severity msg

(* Run [f] on every expression of the file; parse failures are reported by
   the driver's parse pseudo-pass, so here they just yield no findings. *)
let on_exprs src f =
  match Lint_source.ast src with
  | Error _ -> []
  | Ok ast ->
      let out = ref [] in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match f e with [] -> () | fs -> out := fs @ !out);
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.structure it ast;
      List.rev !out

let string_literal expr =
  match expr.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* "Graph: node out of range" / "Bfs_batch.run: source out of range" both
   carry a capitalized context token containing '.' or ':' before the first
   space — the convention the banned-api pass enforces on messages. *)
let has_context_prefix s =
  String.length s > 0
  && s.[0] >= 'A'
  && s.[0] <= 'Z'
  &&
  let stop = match String.index_opt s ' ' with Some i -> i | None -> String.length s in
  let rec go i = i < stop && (s.[i] = '.' || s.[i] = ':' || go (i + 1)) in
  go 0

(* ---- pass 1: banned-api ---- *)

let banned_prints =
  [
    [ "Printf"; "printf" ];
    [ "Printf"; "eprintf" ];
    [ "Format"; "printf" ];
    [ "Format"; "eprintf" ];
    [ "print_endline" ];
    [ "print_string" ];
    [ "print_newline" ];
    [ "print_int" ];
    [ "print_char" ];
    [ "print_float" ];
    [ "print_bytes" ];
    [ "prerr_endline" ];
    [ "prerr_string" ];
    [ "prerr_newline" ];
    [ "prerr_bytes" ];
  ]

(* Scoping exemptions, shared with the typed tier (Lint_typed): the rules
   are the same, only the evidence (literal spelling vs resolved path)
   differs between tiers. *)
let raise_exempt path = is_file "lib/util/io_error.ml" path

let print_exempt path = is_file "lib/util/report.ml" path || under ~dirs:[ "lib"; "obs" ] path

let csr_exempt path = under ~dirs:[ "lib"; "graph" ] path

let check_banned_api _ctx src =
  let path = src.Lint_source.path in
  if not (in_lib path) then []
  else
    on_exprs src (fun e ->
        let err msg = [ finding ~pass:"banned-api" ~severity:Lint_finding.Error src e.pexp_loc msg ] in
        let check_message_arg name arg =
          match string_literal arg with
          | Some s when not (has_context_prefix s) ->
              err
                (Printf.sprintf
                   "%s message %S lacks a Module.fn/Module: context prefix" name s)
          | _ -> []
        in
        match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match ident_path txt with
            | Some [ "failwith" ] when not (raise_exempt path) ->
                err "failwith in lib/ (raise a typed error: Io_error.raise_error or invalid_arg with a Module.fn prefix)"
            | Some p when List.mem p banned_prints && not (print_exempt path) ->
                err
                  (Printf.sprintf "%s in lib/ (route output through Report or Dcs_obs)"
                     (String.concat "." p))
            | Some [ "Csr"; "of_graph" ] when not (csr_exempt path) ->
                err "Csr.of_graph outside lib/graph (use the version-cached Csr.snapshot)"
            | Some [ "Graph"; "to_csr" ] when not (csr_exempt path) ->
                err "Graph.to_csr outside lib/graph (use the version-cached Graph.snapshot)"
            | _ -> [])
        | Pexp_apply (fn, (_, arg) :: _) when not (raise_exempt path) -> (
            match head_of fn with
            | Some [ "invalid_arg" ] -> check_message_arg "invalid_arg" arg
            | _ -> [])
        | Pexp_construct ({ txt = Longident.Lident "Failure"; _ }, Some _)
          when not (raise_exempt path) ->
            err "Failure constructor in lib/ (raise a typed error instead)"
        | Pexp_construct ({ txt = Longident.Lident "Invalid_argument"; _ }, Some arg)
          when not (raise_exempt path) ->
            check_message_arg "Invalid_argument" arg
        | _ -> [])

(* ---- pass 2: unsafe-audit ---- *)

let kernel_allowlist =
  [
    "lib/graph/bfs_batch.ml";
    "lib/graph/csr_store.ml";
    "lib/graph/dijkstra.ml";
  ]

(* "Array1" catches Bigarray.Array1.unsafe_* referenced under [open Bigarray],
   where the head component the parsetree sees is Array1. *)
let unsafe_modules = [ "Array"; "Bytes"; "String"; "Bigarray"; "Array1" ]

let check_unsafe_audit _ctx src =
  let path = src.Lint_source.path in
  let allowed = List.exists (fun k -> is_file k path) kernel_allowlist in
  on_exprs src (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match ident_path txt with
          | Some (m :: rest)
            when List.mem m unsafe_modules
                 && List.exists
                      (fun c -> String.length c >= 7 && String.sub c 0 7 = "unsafe_")
                      rest ->
              let name = String.concat "." (m :: rest) in
              let line, _ = loc_line_col e.pexp_loc in
              if not allowed then
                [
                  finding ~pass:"unsafe-audit" ~severity:Lint_finding.Error src e.pexp_loc
                    (Printf.sprintf
                       "%s outside the allowlisted kernel set (%s)" name
                       (String.concat ", " (List.map Filename.basename kernel_allowlist)));
                ]
              else if not (Lint_source.has_marker_above src ~marker:"SAFETY:" ~line) then
                [
                  finding ~pass:"unsafe-audit" ~severity:Lint_finding.Error src e.pexp_loc
                    (Printf.sprintf
                       "%s without a (* SAFETY: ... *) comment within %d lines above" name
                       Lint_source.marker_window);
                ]
              else []
          | _ -> [])
      | _ -> [])

(* ---- pass 3: par-hygiene ---- *)

let pattern_vars pat =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> out := txt :: !out
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it pat;
  !out

let mutable_ctors =
  [
    ([ "ref" ], "ref cell");
    ([ "Hashtbl"; "create" ], "Hashtbl.t");
    ([ "Array"; "make" ], "mutable array");
    ([ "Array"; "init" ], "mutable array");
    ([ "Array"; "make_matrix" ], "mutable array");
    ([ "Array"; "create_float" ], "mutable array");
    ([ "Bytes"; "create" ], "mutable bytes");
    ([ "Bytes"; "make" ], "mutable bytes");
    ([ "Buffer"; "create" ], "Buffer.t");
    ([ "Queue"; "create" ], "Queue.t");
    ([ "Stack"; "create" ], "Stack.t");
  ]

let rec mutable_kind expr =
  match expr.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match head_of fn with
      | Some p -> List.assoc_opt p mutable_ctors
      | None -> None)
  | Pexp_array _ -> Some "array literal"
  | Pexp_constraint (e, _) -> mutable_kind e
  | _ -> None

let setfield_targets ast =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_setfield ({ pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }, _, _)
            ->
              out := x :: !out
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it ast;
  !out

let check_par_hygiene ctx src =
  let path = src.Lint_source.path in
  if not (in_lib path) then []
  else if not (ctx.parallel_reachable (Lint_source.module_name src)) then []
  else
    match Lint_source.ast src with
    | Error _ -> []
    | Ok ast ->
        let mutated = setfield_targets ast in
        let out = ref [] in
        let flag loc name kind =
          let line, _ = loc_line_col loc in
          if not (Lint_source.has_marker_above src ~marker:"DOMAIN-SAFE:" ~line) then
            out :=
              finding ~pass:"par-hygiene" ~severity:Lint_finding.Warning src loc
                (Printf.sprintf
                   "top-level mutable state: %s is a %s in a module reachable from \
                    Parallel/Domain code; annotate (* DOMAIN-SAFE: why *) or refactor"
                   name kind)
              :: !out
        in
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, bindings) ->
                List.iter
                  (fun vb ->
                    let names = pattern_vars vb.pvb_pat in
                    let name = match names with n :: _ -> n | [] -> "_" in
                    match mutable_kind vb.pvb_expr with
                    | Some kind -> flag vb.pvb_loc name kind
                    | None -> (
                        match vb.pvb_expr.pexp_desc with
                        | Pexp_record _ when List.exists (fun n -> List.mem n mutated) names
                          ->
                            flag vb.pvb_loc name "mutated record global"
                        | _ -> ()))
                  bindings
            | _ -> ())
          ast;
        List.rev !out

(* ---- pass 4: iface-coverage ---- *)

let check_iface_coverage ctx src =
  let path = src.Lint_source.path in
  if not (in_lib path) then []
  else if ctx.file_exists (path ^ "i") then []
  else
    [
      Lint_finding.make ~pass:"iface-coverage" ~file:path ~line:1 ~col:0
        ~severity:Lint_finding.Error
        (Printf.sprintf "missing interface %si (every lib/ module ships a signature)"
           (Filename.basename path));
    ]

(* ---- pass 5: poly-compare ---- *)

let poly_compare_ops = [ "="; "<>"; "compare"; "min"; "max" ]

let graph_returning =
  [
    [ "Graph"; "create" ];
    [ "Graph"; "copy" ];
    [ "Graph"; "of_edges" ];
    [ "Graph"; "snapshot" ];
    [ "Graph"; "survivor" ];
    [ "Graph"; "to_csr" ];
    [ "Csr"; "of_graph" ];
    [ "Csr"; "snapshot" ];
  ]

let graphish_name name =
  let ends_with suffix =
    let ls = String.length suffix and ln = String.length name in
    ln >= ls && String.sub name (ln - ls) ls = suffix
  in
  List.mem name [ "graph"; "csr"; "spanner" ]
  || ends_with "_graph" || ends_with "_csr" || ends_with "_spanner"

let rec graphish expr =
  match expr.pexp_desc with
  | Pexp_ident { txt = Longident.Lident name; _ } -> graphish_name name
  | Pexp_field (e, _) -> graphish e
  | Pexp_constraint (e, _) -> graphish e
  | Pexp_apply (fn, _) -> (
      match head_of fn with
      | Some p -> List.mem p graph_returning || (match p with "Generators" :: _ -> true | _ -> false)
      | None -> false)
  | _ -> false

let check_poly_compare _ctx src =
  on_exprs src (fun e ->
      match e.pexp_desc with
      | Pexp_apply (fn, ((_, a) :: _ as args)) -> (
          match head_of fn with
          | Some [ op ] when List.mem op poly_compare_ops ->
              let operands = a :: (match args with _ :: (_, b) :: _ -> [ b ] | _ -> []) in
              if List.exists graphish operands then
                [
                  finding ~pass:"poly-compare" ~severity:Lint_finding.Error src e.pexp_loc
                    (Printf.sprintf
                       "polymorphic %s on a Graph.t/Csr.t-like value (deep compare on \
                        version-counted graphs; compare node/edge counts or use == identity)"
                       op);
                ]
              else []
          | _ -> [])
      | _ -> [])

(* ---- registry ---- *)

let all =
  [
    {
      id = "banned-api";
      title = "banned API calls";
      doc =
        "failwith/Failure and unprefixed invalid_arg messages in lib/ (except \
         lib/util/io_error.ml); Printf.printf/print_*/prerr_* in lib/ (except Report and \
         Dcs_obs); Csr.of_graph / Graph.to_csr outside lib/graph";
      runs_when_typed = false;
      check = check_banned_api;
    };
    {
      id = "unsafe-audit";
      title = "unsafe accesses confined and justified";
      doc =
        "Array/Bytes/String/Bigarray.Array1 unsafe_* only in bfs_batch.ml, csr_store.ml, \
         dijkstra.ml, and every site preceded by a (* SAFETY: ... *) comment";
      runs_when_typed = false;
      check = check_unsafe_audit;
    };
    {
      id = "par-hygiene";
      title = "parallelism hygiene";
      doc =
        "top-level mutable state (refs, hash tables, arrays, mutated record globals) in \
         modules reachable from Parallel/Domain code must carry a (* DOMAIN-SAFE: ... *) \
         justification; superseded by the typed mutable-escape pass on compiled files";
      runs_when_typed = false;
      check = check_par_hygiene;
    };
    {
      id = "iface-coverage";
      title = "interface coverage";
      doc = "every lib/**/*.ml has a matching .mli";
      runs_when_typed = true;
      check = check_iface_coverage;
    };
    {
      id = "poly-compare";
      title = "no polymorphic compare on graphs";
      doc =
        "flags =, <>, compare, min, max applied to values that look like Graph.t/Csr.t \
         (structural compare ignores the version counter and walks the whole graph)";
      runs_when_typed = false;
      check = check_poly_compare;
    };
  ]

let find id = List.find_opt (fun p -> p.id = id) all
