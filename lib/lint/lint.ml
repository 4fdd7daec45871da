(** rc-lint: static protection-obligation and atomic-discipline checks
    for the reclamation stack (DESIGN.md §9).

    The analyzer parses each [.ml] file with the ppxlib parser and runs
    a set of purely syntactic rules over the AST. Rules are
    deliberately approximate — they encode the repo's protocol
    conventions (announce/confirm naming, CAS-helper naming, the
    [ATOMIC] functor discipline of §8) rather than a points-to
    analysis, which is exactly the Meyer–Wolff observation: the
    acquire/release/retire obligations are simple enough to be checked
    on the syntax of disciplined code.

    Suppression: [\[@@@rc_lint.allow "R2"\]] as a floating structure
    attribute silences a rule from that point to the end of the file;
    [\[@rc_lint.allow "R2"\]] attached to an expression, value binding,
    or record label silences exactly that subtree/site. The payload
    ["all"] silences every rule. *)

open Ppxlib

(* ------------------------------------------------------------------ *)
(* Rule catalogue                                                      *)
(* ------------------------------------------------------------------ *)

let rules : (string * string) list =
  [
    ( "R1",
      "raw-atomic: no direct Stdlib.Atomic operations inside the schedule-sensitive \
       functorized cores or any ATOMIC-parameterized functor body" );
    ( "R2",
      "acquire-release pairing: in lib/ds/*_manual.ml a function that acquires protection \
       must release it on every syntactic exit path" );
    ( "R3",
      "retire-discipline: retire calls must be dominated by a successful CAS/unlink \
       (an if-then whose condition runs compare_and_set or a *cas* helper)" );
    ( "R4",
      "unsafe-escape: Obj.magic/Obj.repr/Obj.obj forbidden outside \
       tools/rc_lint/allow_unsafe.txt" );
    ( "R5",
      "obs-consistency: an SMR scheme defining retire must touch \
       Obs.Scheme_metrics.on_retire so telemetry cannot silently rot" );
    ( "R6",
      "padding: per-domain hot counter arrays in lib/obs and lib/smr must go through \
       Repro_util.Padded (or annotate the deliberate layout)" );
    ( "R7",
      "knob-capture: scheme code must read tuning knobs through Knobs.t accessors, never \
       store them in its own record fields — a captured constant is invisible to the \
       adaptive controller" );
    ( "R8",
      "guard-escape: a guard obtained from an acquire-family call must not escape its \
       protection scope — not stored in a non-local ref or mutable field, not packed \
       into a returned record/tuple, not captured by a closure except as a \
       release-family argument" );
    ( "R9",
      "use-after-retire: a pointer passed to retire (directly or through a summarized \
       helper that retires its parameter) must not be used on any subsequent path in \
       the function" );
  ]

(* ------------------------------------------------------------------ *)
(* File roles                                                          *)
(* ------------------------------------------------------------------ *)

(* Which rules apply to a file is decided from its path. Fixture files
   under test/lint_fixtures mimic the real layout (ds/, smr/, obs/
   subdirectories), so the same role logic covers both trees. *)
type roles = {
  core : bool;  (* one of the three schedule-sensitive cores: whole-file R1 *)
  manual_ds : bool;  (* a *_manual.ml data structure: R2 + R3 *)
  smr_scheme : bool;  (* under an smr/ directory: R5 + R7 *)
  obs_smr : bool;  (* under obs/ or smr/: R6 *)
  unsafe_allowed : bool;  (* listed in allow_unsafe.txt: R4 off *)
  knobs_module : bool;  (* knobs.ml itself — the one legal knob store; R7 off *)
}

let path_segments p =
  String.split_on_char '/' p |> List.filter (fun s -> s <> "" && s <> ".")

(* Allowlist entries are workspace-relative ("lib/smr/ident.ml"); a
   file matches when its trailing path segments equal the entry's, so
   the linter works from any invocation root. *)
let suffix_matches ~entry path =
  let e = List.rev (path_segments entry) and p = List.rev (path_segments path) in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ -> false
  in
  e <> [] && is_prefix e p

let core_basenames = [ "sticky_counter_f.ml"; "slot_protocol.ml"; "rc_cell.ml" ]

let roles_of ~allow_unsafe path =
  let segs = path_segments path in
  let base = match List.rev segs with b :: _ -> b | [] -> path in
  let dirs = match List.rev segs with _ :: d -> d | [] -> [] in
  let has d = List.mem d dirs in
  {
    core = List.mem base core_basenames;
    manual_ds = Filename.check_suffix base "_manual.ml";
    smr_scheme = has "smr";
    obs_smr = has "obs" || has "smr";
    unsafe_allowed = List.exists (fun entry -> suffix_matches ~entry path) allow_unsafe;
    knobs_module = String.equal base "knobs.ml";
  }

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                              *)
(* ------------------------------------------------------------------ *)

let allow_payload (a : attribute) =
  if not (String.equal a.attr_name.txt "rc_lint.allow") then None
  else
    match a.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        Some s
    | _ -> Some "all" (* a malformed payload suppresses everything rather than nothing *)

let allows rule attrs =
  List.exists
    (fun a ->
      match allow_payload a with
      | Some s -> String.equal s rule || String.equal (String.lowercase_ascii s) "all"
      | None -> false)
    attrs

(* ------------------------------------------------------------------ *)
(* Longident and subtree helpers                                       *)
(* ------------------------------------------------------------------ *)

let flat lid = try Longident.flatten_exn lid with _ -> []
let last_seg lid = match List.rev (flat lid) with s :: _ -> Some s | [] -> None

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Protection-protocol vocabularies. These encode the repo's naming
   conventions (Smr_intf + the manual data structures); a structure
   using different names can either adopt them or annotate. *)
let acquire_names =
  [ "protect"; "protect_read"; "try_protect"; "try_protect_ident"; "try_acquire"; "acquire" ]

let release_names =
  [ "release"; "release_opt"; "release_all"; "unprotect"; "unannounce"; "discard"; "clear" ]

let raise_names = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]
let retire_names = [ "retire"; "retire_free" ]

(* [Fun.protect] is scoped-finalization, not slot protection. *)
let is_family names path =
  match List.rev path with
  | name :: _ -> List.mem name names && path <> [ "Fun"; "protect" ]
  | [] -> false

let apply_head e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> Some (flat txt)
  | _ -> None

let expr_contains_apply names e =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        if not !found then begin
          (match apply_head e with
          | Some path when is_family names path -> found := true
          | _ -> ());
          if not !found then super#expression e
        end
    end
  in
  it#expression e;
  !found

let contains_acquire = expr_contains_apply acquire_names
let contains_release = expr_contains_apply release_names

(* CAS vocabulary: the primitive itself plus the repo's retrying
   helpers (link_cas, edge_cas, cas_link, ...). *)
let is_casish_name s =
  let s = String.lowercase_ascii s in
  String.equal s "compare_and_set" || contains_substring ~sub:"cas" s

let pattern_mentions_none p =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! pattern p =
        (match p.ppat_desc with
        | Ppat_construct ({ txt = Lident "None"; _ }, _) -> found := true
        | _ -> ());
        if not !found then super#pattern p
    end
  in
  it#pattern p;
  !found

(* ------------------------------------------------------------------ *)
(* Finding accumulation                                                *)
(* ------------------------------------------------------------------ *)

type ctx = { file : string; mutable findings : Finding.t list }

let report ctx rule (loc : Location.t) msg =
  ctx.findings <-
    {
      Finding.file = ctx.file;
      line = loc.loc_start.pos_lnum;
      col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      rule;
      msg;
    }
    :: ctx.findings

(* ------------------------------------------------------------------ *)
(* R1: raw-atomic                                                      *)
(* ------------------------------------------------------------------ *)

let atomic_value_ref lid =
  match flat lid with [ "Atomic"; _ ] | [ "Stdlib"; "Atomic"; _ ] -> true | _ -> false

let atomic_module_ref lid =
  match flat lid with [ "Atomic" ] | [ "Stdlib"; "Atomic" ] -> true | _ -> false

let r1_msg what =
  Printf.sprintf
    "raw `%s` bypasses the ATOMIC functor shim; the §8 schedule explorer cannot interpose \
     on this step — use the functor's atomic parameter"
    what

let run_r1 ctx ~whole_file st =
  let it =
    object (self)
      inherit Ast_traverse.iter as super
      val mutable scope = if whole_file then 1 else 0

      method! module_expr me =
        match me.pmod_desc with
        | Pmod_functor (Named (_, { pmty_desc = Pmty_ident { txt; _ }; _ }), body)
          when last_seg txt = Some "ATOMIC" ->
            scope <- scope + 1;
            self#module_expr body;
            scope <- scope - 1
        | Pmod_ident { txt; loc } when scope > 0 && atomic_module_ref txt ->
            report ctx "R1" loc (r1_msg (String.concat "." (flat txt)))
        | _ -> super#module_expr me

      method! value_binding vb =
        if allows "R1" vb.pvb_attributes then () else super#value_binding vb

      method! expression e =
        if allows "R1" e.pexp_attributes then ()
        else begin
          (if scope > 0 then
             match e.pexp_desc with
             | Pexp_ident { txt; loc } when atomic_value_ref txt ->
                 report ctx "R1" loc (r1_msg (String.concat "." (flat txt)))
             | _ -> ());
          super#expression e
        end

      method! core_type t =
        if allows "R1" t.ptyp_attributes then ()
        else begin
          (if scope > 0 then
             match t.ptyp_desc with
             | Ptyp_constr ({ txt; loc }, _) when atomic_value_ref txt ->
                 report ctx "R1" loc (r1_msg (String.concat "." (flat txt)))
             | _ -> ());
          super#core_type t
        end

      method! open_description od =
        (if scope > 0 && atomic_module_ref od.popen_expr.txt then
           report ctx "R1" od.popen_loc (r1_msg (String.concat "." (flat od.popen_expr.txt))));
        super#open_description od
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R2: acquire-release pairing                                         *)
(* ------------------------------------------------------------------ *)

(* Per structure-level function: if its body performs an
   acquire-family call it must (a) mention a release-family call
   somewhere (unless the function is itself a guard constructor by
   naming convention: name starts with "protect" or mentions
   "acquire"), and (b) not raise on a
   path with no preceding release. "Preceding" is judged per enclosing
   sequence/let chain; a raise in the [None] arm of a match whose
   scrutinee performs the acquire is exempt (no slot was obtained). *)

let r2_guard_constructor name =
  let lname = String.lowercase_ascii name in
  String.length lname >= 7 && String.sub lname 0 7 = "protect"
  || contains_substring ~sub:"acquire" lname

let r2_check_binding ctx name (vb : value_binding) =
  let body = vb.pvb_expr in
  if not (contains_acquire body) then ()
  else begin
    if (not (r2_guard_constructor name)) && not (contains_release body) then
      report ctx "R2" vb.pvb_loc
        (Printf.sprintf
           "`%s` acquires protection but contains no release/unprotect — every exit path \
            must return its announcement slot"
           name);
    let it =
      object (self)
        inherit Ast_traverse.iter as super
        val mutable released = false
        val mutable exempt = false

        method! expression e =
          if allows "R2" e.pexp_attributes then ()
          else begin
            let saved_r = released and saved_e = exempt in
            (match e.pexp_desc with
            | Pexp_sequence (e1, e2) ->
                self#expression e1;
                released <- saved_r || contains_release e1;
                exempt <- saved_e;
                self#expression e2
            | Pexp_let (_, vbs, rest) ->
                List.iter
                  (fun vb ->
                    self#expression vb.pvb_expr;
                    released <- saved_r;
                    exempt <- saved_e)
                  vbs;
                released <- saved_r || List.exists (fun vb -> contains_release vb.pvb_expr) vbs;
                self#expression rest
            | Pexp_match (scrut, cases) ->
                self#expression scrut;
                let acquiring = contains_acquire scrut in
                List.iter
                  (fun c ->
                    released <- saved_r;
                    exempt <- saved_e || (acquiring && pattern_mentions_none c.pc_lhs);
                    Option.iter self#expression c.pc_guard;
                    self#expression c.pc_rhs)
                  cases
            | Pexp_try (body, cases) ->
                (* A raise inside [try] does not exit the function. *)
                exempt <- true;
                self#expression body;
                released <- saved_r;
                exempt <- saved_e;
                List.iter
                  (fun c ->
                    Option.iter self#expression c.pc_guard;
                    self#expression c.pc_rhs;
                    released <- saved_r;
                    exempt <- saved_e)
                  cases
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
              when is_family raise_names (flat txt) ->
                if not (released || exempt) then
                  report ctx "R2" e.pexp_loc
                    (Printf.sprintf
                       "early exit via `%s` on a path that may hold a protection slot — \
                        release the guard first (or annotate with [@rc_lint.allow \"R2\"])"
                       (String.concat "." (flat txt)));
                List.iter (fun (_, a) -> self#expression a) args
            | _ -> super#expression e);
            released <- saved_r;
            exempt <- saved_e
          end
      end
    in
    it#expression body
  end

let run_r2 ctx st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                if allows "R2" vb.pvb_attributes then ()
                else
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = name; _ } -> r2_check_binding ctx name vb
                  | _ -> ())
              vbs
        | _ -> super#structure_item si
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R3: retire-discipline                                               *)
(* ------------------------------------------------------------------ *)

(* A retire call is accepted only inside the then-arm of an
   if-expression whose condition runs a CAS (directly, or through a
   variable let-bound to a CAS result), anywhere below that arm —
   including local helper functions defined inside it, which is how
   nm_tree's Fig 1a retire_chain loop is structured. *)

let run_r3 ctx st =
  let it =
    object (self)
      inherit Ast_traverse.iter as super
      val mutable dominated = false
      val mutable casvars : string list = []

      method private casish_cond c =
        let found = ref false in
        let vars = casvars in
        let probe =
          object
            inherit Ast_traverse.iter as deeper

            method! expression e =
              if not !found then begin
                (match e.pexp_desc with
                | Pexp_ident { txt = Lident v; _ } when List.mem v vars -> found := true
                | _ -> (
                    match apply_head e with
                    | Some path
                      when (match List.rev path with
                           | n :: _ -> is_casish_name n
                           | [] -> false) ->
                        found := true
                    | _ -> ()));
                if not !found then deeper#expression e
              end
          end
        in
        probe#expression c;
        !found

      method! value_binding vb =
        let skip =
          allows "R3" vb.pvb_attributes
          ||
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } -> List.mem name retire_names
          | _ -> false
        in
        if skip then () else super#value_binding vb

      method! expression e =
        if allows "R3" e.pexp_attributes then ()
        else begin
          let saved_d = dominated and saved_v = casvars in
          (match e.pexp_desc with
          | Pexp_let (_, vbs, body) ->
              List.iter (fun vb -> self#value_binding vb) vbs;
              dominated <- saved_d;
              List.iter
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = v; _ } when self#casish_cond vb.pvb_expr ->
                      casvars <- v :: casvars
                  | _ -> ())
                vbs;
              self#expression body
          | Pexp_ifthenelse (cond, then_, else_) ->
              self#expression cond;
              dominated <- saved_d || self#casish_cond cond;
              self#expression then_;
              dominated <- saved_d;
              Option.iter self#expression else_
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when is_family retire_names (flat txt) ->
              if not dominated then
                report ctx "R3" e.pexp_loc
                  (Printf.sprintf
                     "`%s` outside a CAS-success arm — the node may still be reachable; \
                      retire only after a successful unlink, or annotate the helper"
                     (String.concat "." (flat txt)));
              List.iter (fun (_, a) -> self#expression a) args
          | _ -> super#expression e);
          dominated <- saved_d;
          casvars <- saved_v
        end
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R4: unsafe-escape                                                   *)
(* ------------------------------------------------------------------ *)

let obj_escape lid =
  match flat lid with
  | [ "Obj"; m ] | [ "Stdlib"; "Obj"; m ] -> List.mem m [ "magic"; "repr"; "obj" ]
  | _ -> false

let run_r4 ctx st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        if allows "R4" vb.pvb_attributes then () else super#value_binding vb

      method! expression e =
        if allows "R4" e.pexp_attributes then ()
        else begin
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } when obj_escape txt ->
              report ctx "R4" loc
                (Printf.sprintf
                   "unsafe `%s` escape hatch — add this file to \
                    tools/rc_lint/allow_unsafe.txt if the use is deliberate"
                   (String.concat "." (flat txt)))
          | _ -> ());
          super#expression e
        end
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R5: obs-consistency                                                 *)
(* ------------------------------------------------------------------ *)

let run_r5 ctx st =
  let retire_binding = ref None in
  let touched = ref false in
  let suppressed = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        (match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = "retire"; _ } ->
                    if allows "R5" vb.pvb_attributes then suppressed := true
                    else if !retire_binding = None then retire_binding := Some vb.pvb_loc
                | _ -> ())
              vbs
        | _ -> ());
        super#structure_item si

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match List.rev (flat txt) with
            | "on_retire" :: "Scheme_metrics" :: _ -> touched := true
            | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  it#structure st;
  match !retire_binding with
  | Some loc when (not !touched) && not !suppressed ->
      report ctx "R5" loc
        "scheme defines `retire` but never calls Obs.Scheme_metrics.on_retire — the §7 \
         telemetry (retire counters, reclaim-latency histogram) would silently rot"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* R6: padding                                                         *)
(* ------------------------------------------------------------------ *)

let is_int_type t =
  match t.ptyp_desc with Ptyp_constr ({ txt = Lident "int"; _ }, []) -> true | _ -> false

let is_atomic_type t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, [ _ ]) -> (
      match flat txt with [ "Atomic"; "t" ] | [ "Stdlib"; "Atomic"; "t" ] -> true | _ -> false)
  | _ -> false

let run_r6 ctx st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! label_declaration ld =
        let hot_array =
          match ld.pld_type.ptyp_desc with
          | Ptyp_constr ({ txt = Lident "array"; _ }, [ elt ]) ->
              if is_int_type elt then Some "int array"
              else if is_atomic_type elt then Some "Atomic.t array"
              else None
          | _ -> None
        in
        (match hot_array with
        | Some shape
          when not
                 (allows "R6" ld.pld_attributes || allows "R6" ld.pld_type.ptyp_attributes) ->
            report ctx "R6" ld.pld_loc
              (Printf.sprintf
                 "field `%s` is a plain %s — per-domain hot counters share cache lines; use \
                  Repro_util.Padded, or annotate a deliberate layout with [@rc_lint.allow \
                  \"R6\"]"
                 ld.pld_name.txt shape)
        | _ -> ());
        super#label_declaration ld
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R7: knob-capture                                                    *)
(* ------------------------------------------------------------------ *)

(* A scheme record field named after a tuning knob is a constant
   captured at [create] time: the adaptive controller's setters write
   the Knobs.t block, so a copy in scheme state silently stops
   tracking. Schemes store the [Knobs.t] itself and re-read through
   its accessors on every use. ([slots_per_thread] is exempt —
   structural, sized at create by design.) *)

let knob_field_names = [ "epoch_freq"; "cleanup_freq"; "batch_cap"; "sync_scan" ]

let run_r7 ctx st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! label_declaration ld =
        if
          List.mem ld.pld_name.txt knob_field_names
          && not
               (allows "R7" ld.pld_attributes || allows "R7" ld.pld_type.ptyp_attributes)
        then
          report ctx "R7" ld.pld_loc
            (Printf.sprintf
               "field `%s` captures a tuning knob in scheme state — store the Knobs.t \
                block and read `Knobs.%s` at each use so the adaptive controller can \
                retune it"
               ld.pld_name.txt ld.pld_name.txt);
        super#label_declaration ld
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R8: guard-escape                                                    *)
(* ------------------------------------------------------------------ *)

(* Interprocedural life-cycle rule 1 (Meyer–Wolff's guard scoping as a
   syntactic check): a guard value let-bound from an acquire-family
   call is *tainted*; it must die inside its function. Escape shapes:

   - assigned into a ref that is NOT let-bound to [ref ...] in the same
     function (a local ref is the legal hand-over-hand idiom — see
     nm_tree's seek — because it cannot outlive the frame);
   - stored into a mutable record field ([x.f <- ... g ...]);
   - packed into a record literal (a cursor that outlives the scope);
   - returned in tail position (bare, or inside a tuple/construct);
   - captured by a closure, unless every mention inside the closure is
     an argument of a release-family call (the [Fun.protect
     ~finally:(fun () -> release t g)] finalizer idiom).

   Taint is deliberately narrow: only [let]-bound variables whose name
   looks like a guard ([g], [g_*], [g<digit/letter>], [guard*]) and
   whose right-hand side *is* an acquire-family application. Guards
   bound by match patterns ([Some g -> ...]) are the caller's problem
   at the binding site that produced them, and functions that exist to
   construct guards (protect*/acquire* by name, as in R2) are exempt. *)

let guardish_name n =
  let ln = String.lowercase_ascii n in
  String.equal ln "g"
  || (String.length ln >= 2 && ln.[0] = 'g' && (ln.[1] = '_' || String.length ln <= 3))
  || (String.length ln >= 5 && String.sub ln 0 5 = "guard")

let is_acquire_apply e =
  match apply_head e with Some path -> is_family acquire_names path | None -> false

let pat_vars p =
  let acc = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! pattern q =
        (match q.ppat_desc with
        | Ppat_var { txt; _ } -> acc := txt :: !acc
        | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
        | _ -> ());
        super#pattern q
    end
  in
  it#pattern p;
  !acc

(* Tainted variables let-bound by [vbs]: guard-named vars (bare or in a
   tuple pattern) whose RHS is an acquire-family application. *)
let r8_taints_of vbs =
  List.concat_map
    (fun vb ->
      if is_acquire_apply vb.pvb_expr then
        List.filter guardish_name (pat_vars vb.pvb_pat)
      else [])
    vbs

(* Local refs let-bound by [vbs]: [let r = ref ...]. *)
let r8_refs_of vbs =
  List.concat_map
    (fun vb ->
      match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
      | ( Ppat_var { txt; _ },
          Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "ref"; _ }; _ }, _) ) ->
          [ txt ]
      | _ -> [])
    vbs

let minus vars names = List.filter (fun v -> not (List.mem v names)) vars

let param_pats params =
  List.filter_map
    (fun p ->
      match p.pparam_desc with Pparam_val (_, _, pat) -> Some pat | Pparam_newtype _ -> None)
    params

let param_vars params = List.concat_map pat_vars (param_pats params)

(* Does [e] mention a tainted guard at all — skipping release-family
   call arguments when [skip_release], and respecting lambda-parameter
   shadowing? *)
let mentions_guard ~skip_release tainted e0 =
  let found = ref false in
  let rec make tainted =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        if !found || tainted = [] then ()
        else
          match e.pexp_desc with
          | Pexp_ident { txt = Lident v; _ } when List.mem v tainted -> found := true
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when skip_release && is_family release_names (flat txt) ->
              ()
          | Pexp_function (params, _, fbody) -> (
              let tainted = minus tainted (param_vars params) in
              match fbody with
              | Pfunction_body e' -> (make tainted)#expression e'
              | Pfunction_cases (cases, _, _) ->
                  List.iter
                    (fun c ->
                      (make (minus tainted (pat_vars c.pc_lhs)))#expression c.pc_rhs)
                    cases)
          | _ -> super#expression e
    end
  in
  (make tainted)#expression e0;
  !found

(* A tainted ident reachable through pure data structure only:
   tuples, constructs, variants, record fields. This is the "the guard
   itself is in the returned value" test — calls are not structural, so
   [loop g] or [release t g] never match. *)
let rec structural_mention tainted e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident v; _ } -> List.mem v tainted
  | Pexp_tuple es -> List.exists (structural_mention tainted) es
  | Pexp_construct (_, Some e') | Pexp_variant (_, Some e') -> structural_mention tainted e'
  | Pexp_record (fields, base) ->
      List.exists (fun (_, e') -> structural_mention tainted e') fields
      || (match base with Some b -> structural_mention tainted b | None -> false)
  | Pexp_constraint (e', _) -> structural_mention tainted e'
  | _ -> false

let run_r8 ctx st =
  (* Tail positions of a function body: where a structural mention of a
     tainted guard means "returned to the caller". *)
  let rec check_tail tainted e =
    (* no empty-taint short-circuit: the top-level call starts empty
       and only picks up taint at the [let]s it walks through *)
    if allows "R8" e.pexp_attributes then ()
    else
      match e.pexp_desc with
      | Pexp_function (params, _, Pfunction_body body) ->
          check_tail (minus tainted (param_vars params)) body
      | Pexp_function (params, _, Pfunction_cases (cases, _, _)) ->
          let tainted = minus tainted (param_vars params) in
          List.iter (fun c -> check_tail (minus tainted (pat_vars c.pc_lhs)) c.pc_rhs) cases
      | Pexp_let (_, vbs, body) ->
          let tainted = minus tainted (List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs) in
          check_tail (tainted @ r8_taints_of vbs) body
      | Pexp_sequence (_, e2) -> check_tail tainted e2
      | Pexp_ifthenelse (_, t, eo) ->
          check_tail tainted t;
          Option.iter (check_tail tainted) eo
      | Pexp_match (_, cases) | Pexp_try (_, cases) ->
          List.iter (fun c -> check_tail (minus tainted (pat_vars c.pc_lhs)) c.pc_rhs) cases
      | Pexp_constraint (e', _) -> check_tail tainted e'
      | Pexp_ident _ | Pexp_tuple _ | Pexp_construct _ | Pexp_variant _ ->
          if structural_mention tainted e then
            report ctx "R8" e.pexp_loc
              "guard escapes its protection scope: returned from a non-constructor \
               function — the protection interval must close before the frame does \
               (release first, or name the function protect*/acquire* if it is a guard \
               constructor)"
      | _ -> ()
  in
  let walk_binding vb =
    let it =
      object (self)
        inherit Ast_traverse.iter as super
        val mutable tainted : string list = []
        val mutable refs : string list = []

        method! expression e =
          if allows "R8" e.pexp_attributes then ()
          else begin
            let saved_t = tainted and saved_r = refs in
            (match e.pexp_desc with
            | Pexp_let (_, vbs, body) ->
                List.iter (fun vb -> self#expression vb.pvb_expr) vbs;
                let bound = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
                tainted <- minus tainted bound @ r8_taints_of vbs;
                refs <- minus refs bound @ r8_refs_of vbs;
                self#expression body
            | Pexp_function (params, _, fbody) ->
                let mentions =
                  match fbody with
                  | Pfunction_body e' -> mentions_guard ~skip_release:true tainted e'
                  | Pfunction_cases (cases, _, _) ->
                      List.exists
                        (fun c -> mentions_guard ~skip_release:true tainted c.pc_rhs)
                        cases
                in
                if mentions then
                  report ctx "R8" e.pexp_loc
                    "guard escapes its protection scope: captured by a closure (only \
                     release-family calls may mention a guard from inside a closure — \
                     the closure may run after the announcement is gone)";
                tainted <- minus tainted (param_vars params);
                (match fbody with
                | Pfunction_body e' -> self#expression e'
                | Pfunction_cases (cases, _, _) ->
                    let t0 = tainted in
                    List.iter
                      (fun c ->
                        tainted <- minus t0 (pat_vars c.pc_lhs);
                        self#expression c.pc_rhs)
                      cases)
            | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
                self#expression scrut;
                List.iter
                  (fun c ->
                    tainted <- minus saved_t (pat_vars c.pc_lhs);
                    refs <- saved_r;
                    Option.iter self#expression c.pc_guard;
                    self#expression c.pc_rhs)
                  cases
            | Pexp_apply
                ( { pexp_desc = Pexp_ident { txt = Lident ":="; _ }; _ },
                  [ (_, { pexp_desc = Pexp_ident { txt = Lident r; _ }; _ }); (_, rhs) ] )
              ->
                if
                  (not (List.mem r refs))
                  && mentions_guard ~skip_release:false tainted rhs
                then
                  report ctx "R8" e.pexp_loc
                    (Printf.sprintf
                       "guard escapes its protection scope: assigned into `%s`, a ref \
                        not local to this function — the guard may be read after its \
                        announcement is released"
                       r);
                self#expression rhs
            | Pexp_setfield (obj, field, rhs) ->
                if mentions_guard ~skip_release:false tainted rhs then
                  report ctx "R8" e.pexp_loc
                    (Printf.sprintf
                       "guard escapes its protection scope: stored into mutable field \
                        `%s` — state that outlives the frame must not hold a live guard"
                       (match last_seg field.txt with Some s -> s | None -> "?"));
                self#expression obj;
                self#expression rhs
            | Pexp_record _ ->
                if structural_mention tainted e then
                  report ctx "R8" e.pexp_loc
                    "guard escapes its protection scope: packed into a record literal — \
                     a cursor or state value must carry released (or caller-owned) \
                     guards only"
                else super#expression e
            | _ -> super#expression e);
            tainted <- saved_t;
            refs <- saved_r
          end
      end
    in
    it#expression vb.pvb_expr;
    check_tail [] vb.pvb_expr
  in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                if allows "R8" vb.pvb_attributes then ()
                else
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = name; _ } when not (r2_guard_constructor name) ->
                      walk_binding vb
                  | _ -> ())
              vbs
        | _ -> super#structure_item si
    end
  in
  it#structure st

(* ------------------------------------------------------------------ *)
(* R9: use-after-retire                                                *)
(* ------------------------------------------------------------------ *)

(* Interprocedural life-cycle rule 2: once a pointer variable is passed
   to retire — directly, or through a helper whose summary says it
   retires that parameter — any later occurrence of the variable on any
   path in the function is flagged. After a retire the node can be
   freed by any concurrent eject; even reading it is the race the §14
   sanitizer hunts dynamically, and this is its static shadow.

   Pass 1 builds per-function summaries (one top-down sweep over the
   file: which positional parameters flow into a retire-family call);
   pass 2 walks every function body in syntactic order with a
   may-retire set — branch arms are analyzed independently and their
   exits unioned, rebinding a name clears it, and closures are analyzed
   under the state at their creation point. *)

type r9_summary = (string, int list) Hashtbl.t
(* function name -> positional (unlabelled) argument indices it retires *)

let r9_positional_params e =
  (* the Nolabel parameter names of a [fun p1 -> fun p2 -> ...] chain *)
  let rec go acc e =
    match e.pexp_desc with
    | Pexp_function (params, _, fbody) -> (
        let acc =
          List.fold_left
            (fun acc p ->
              match p.pparam_desc with
              | Pparam_val (Nolabel, _, { ppat_desc = Ppat_var { txt; _ }; _ }) ->
                  txt :: acc
              | _ -> acc)
            acc params
        in
        match fbody with Pfunction_body e' -> go acc e' | Pfunction_cases _ -> List.rev acc)
    | Pexp_constraint (e', _) -> go acc e'
    | _ -> List.rev acc
  in
  go [] e

let r9_build_summaries st : r9_summary =
  let summaries : r9_summary = Hashtbl.create 16 in
  let scan_function name rhs =
    let params = r9_positional_params rhs in
    if params <> [] then begin
      let retired_params = ref [] in
      let it =
        object
          inherit Ast_traverse.iter as super

          method! expression e =
            (match e.pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
              when is_family retire_names (flat txt) -> (
                (* only the LAST positional ident is the retired
                   pointer; leading ones are the context *)
                let last_ident =
                  List.fold_left
                    (fun acc (lbl, a) ->
                      match (lbl, a.pexp_desc) with
                      | Nolabel, Pexp_ident { txt = Lident v; _ } -> Some v
                      | _ -> acc)
                    None args
                in
                match last_ident with
                | Some v -> (
                    match List.find_index (String.equal v) params with
                    | Some i when not (List.mem i !retired_params) ->
                        retired_params := i :: !retired_params
                    | _ -> ())
                | None -> ())
            | _ -> ());
            super#expression e
        end
      in
      it#expression rhs;
      if !retired_params <> [] then Hashtbl.replace summaries name !retired_params
    end
  in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        (match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt = name; _ } when not (List.mem name retire_names) ->
            scan_function name vb.pvb_expr
        | _ -> ());
        super#value_binding vb
    end
  in
  it#structure st;
  summaries

let run_r9 ctx st =
  let summaries = r9_build_summaries st in
  (* [walk retired e] returns the may-retire set after [e]; [retired]
     maps a variable to the line of its retire site. *)
  let rec walk (retired : (string * int) list) e : (string * int) list =
    if allows "R9" e.pexp_attributes then retired
    else begin
      let use v loc =
        match List.assoc_opt v retired with
        | Some line ->
            report ctx "R9" loc
              (Printf.sprintf
                 "`%s` used after retire (retired at line %d) — a retired node may be \
                  freed by any concurrent eject; copy what you need before retiring, or \
                  annotate with [@rc_lint.allow \"R9\"]"
                 v line)
        | None -> ()
      in
      let unbind vars retired = List.filter (fun (v, _) -> not (List.mem v vars)) retired in
      (* The retired pointer is the LAST positional ident argument —
         leading positional args are the per-thread context
         ([retire c n], never the other way around). *)
      let retire_args args retired =
        let last_ident =
          List.fold_left
            (fun acc (lbl, a) ->
              match (lbl, a.pexp_desc) with
              | Nolabel, Pexp_ident { txt = Lident v; _ } -> Some (v, a.pexp_loc)
              | _ -> acc)
            None args
        in
        match last_ident with
        | Some (v, loc) when not (List.mem_assoc v retired) ->
            (v, loc.loc_start.pos_lnum) :: retired
        | _ -> retired
      in
      match e.pexp_desc with
      | Pexp_ident { txt = Lident v; _ } ->
          use v e.pexp_loc;
          retired
      | Pexp_let (_, vbs, body) ->
          let r = List.fold_left (fun r vb -> walk r vb.pvb_expr) retired vbs in
          let bound = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
          walk (unbind bound r) body
      | Pexp_sequence (e1, e2) -> walk (walk retired e1) e2
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
        when is_family retire_names (flat txt) ->
          (* flag uses inside the args first (covers double retire),
             then mark the retired variables *)
          let r = List.fold_left (fun r (_, a) -> walk r a) retired args in
          retire_args args r
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident f; _ }; _ }, args)
        when Hashtbl.mem summaries f ->
          let r = List.fold_left (fun r (_, a) -> walk r a) retired args in
          let retiring = Hashtbl.find summaries f in
          let _, r =
            List.fold_left
              (fun (i, acc) (lbl, a) ->
                match (lbl, a.pexp_desc) with
                | Nolabel, Pexp_ident { txt = Lident v; _ } ->
                    if List.mem i retiring && not (List.mem_assoc v acc) then
                      (i + 1, (v, a.pexp_loc.loc_start.pos_lnum) :: acc)
                    else (i + 1, acc)
                | Nolabel, _ -> (i + 1, acc)
                | _ -> (i, acc))
              (0, r) args
          in
          r
      | Pexp_apply (head, args) ->
          List.fold_left (fun r (_, a) -> walk r a) (walk retired head) args
      | Pexp_ifthenelse (cond, t, eo) ->
          let r0 = walk retired cond in
          let r1 = walk r0 t in
          let r2 = match eo with Some e' -> walk r0 e' | None -> r0 in
          (* may-retire: union of the arms *)
          r1 @ List.filter (fun (v, _) -> not (List.mem_assoc v r1)) r2
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
          let r0 = walk retired scrut in
          List.fold_left
            (fun acc c ->
              Option.iter (fun g -> ignore (walk r0 g)) c.pc_guard;
              let ri = walk (unbind (pat_vars c.pc_lhs) r0) c.pc_rhs in
              acc @ List.filter (fun (v, _) -> not (List.mem_assoc v acc)) ri)
            r0 cases
      | Pexp_function (params, _, fbody) ->
          let inner = unbind (param_vars params) retired in
          (match fbody with
          | Pfunction_body e' -> ignore (walk inner e')
          | Pfunction_cases (cases, _, _) ->
              List.iter
                (fun c -> ignore (walk (unbind (pat_vars c.pc_lhs) inner) c.pc_rhs))
                cases);
          retired
      | Pexp_tuple es | Pexp_array es -> List.fold_left walk retired es
      | Pexp_construct (_, eo) | Pexp_variant (_, eo) ->
          Option.fold ~none:retired ~some:(walk retired) eo
      | Pexp_record (fields, base) ->
          let r = Option.fold ~none:retired ~some:(walk retired) base in
          List.fold_left (fun r (_, e') -> walk r e') r fields
      | Pexp_field (e', _) -> walk retired e'
      | Pexp_setfield (o, _, v) -> walk (walk retired o) v
      | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) | Pexp_assert e' | Pexp_lazy e'
      | Pexp_open (_, e') ->
          walk retired e'
      | Pexp_while (c, b) ->
          ignore (walk (walk retired c) b);
          retired
      | Pexp_for (p, lo, hi, _, b) ->
          let r = walk (walk retired lo) hi in
          ignore (walk (unbind (pat_vars p) r) b);
          r
      | Pexp_letmodule (_, _, e') -> walk retired e'
      | _ ->
          (* other node kinds neither bind nor retire in this codebase;
             still surface any use of an already-retired variable *)
          if retired <> [] then begin
            let probe =
              object
                inherit Ast_traverse.iter as super

                method! expression e' =
                  (match e'.pexp_desc with
                  | Pexp_ident { txt = Lident v; _ } -> use v e'.pexp_loc
                  | _ -> ());
                  super#expression e'
              end
            in
            probe#expression e
          end;
          retired
    end
  in
  let top =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let skip =
                  allows "R9" vb.pvb_attributes
                  ||
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = name; _ } -> List.mem name retire_names
                  | _ -> false
                in
                if not skip then ignore (walk [] vb.pvb_expr))
              vbs
        | _ -> super#structure_item si
    end
  in
  top#structure st

(* Floating [@@@rc_lint.allow "R"] attributes: each one suppresses the
   rule for every finding at or below its own line. *)
let file_suppressions st =
  let spans = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        (match si.pstr_desc with
        | Pstr_attribute a -> (
            match allow_payload a with
            | Some rule -> spans := (rule, a.attr_loc.loc_start.pos_lnum) :: !spans
            | None -> ())
        | _ -> ());
        super#structure_item si
    end
  in
  it#structure st;
  !spans

let suppressed_by spans (f : Finding.t) =
  List.exists
    (fun (rule, from_line) ->
      (String.equal rule f.Finding.rule || String.equal (String.lowercase_ascii rule) "all")
      && f.Finding.line >= from_line)
    spans

let lint_structure ~roles ctx st =
  run_r1 ctx ~whole_file:roles.core st;
  if roles.manual_ds then begin
    run_r2 ctx st;
    run_r3 ctx st;
    run_r8 ctx st;
    run_r9 ctx st
  end;
  if not roles.unsafe_allowed then run_r4 ctx st;
  if roles.smr_scheme then run_r5 ctx st;
  if roles.obs_smr then run_r6 ctx st;
  if roles.smr_scheme && not roles.knobs_module then run_r7 ctx st;
  let spans = file_suppressions st in
  ctx.findings <- List.filter (fun f -> not (suppressed_by spans f)) ctx.findings

let lint_string ?(allow_unsafe = []) ~filename src =
  let ctx = { file = filename; findings = [] } in
  let roles = roles_of ~allow_unsafe filename in
  (try
     let lexbuf = Lexing.from_string src in
     Lexing.set_filename lexbuf filename;
     let st = Parse.implementation lexbuf in
     lint_structure ~roles ctx st
   with e ->
     let line =
       match e with
       | Syntaxerr.Error err -> (Syntaxerr.location_of_error err).loc_start.pos_lnum
       | _ -> 1
     in
     ctx.findings <-
       [
         {
           Finding.file = filename;
           line;
           col = 0;
           rule = "parse";
           msg = Printf.sprintf "cannot parse: %s" (Printexc.to_string e);
         };
       ]);
  List.sort Finding.compare ctx.findings

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?allow_unsafe path = lint_string ?allow_unsafe ~filename:path (read_file path)

(* ------------------------------------------------------------------ *)
(* File collection and allowlist                                       *)
(* ------------------------------------------------------------------ *)

let rec collect_ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun name -> name <> "_build" && name.[0] <> '.')
    |> List.concat_map (fun name -> collect_ml_files (Filename.concat path name))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let load_allowlist path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go acc else go (line :: acc)
      in
      go [])

let lint_paths ?(allow_unsafe = []) paths =
  paths
  |> List.concat_map collect_ml_files
  |> List.concat_map (fun f -> lint_file ~allow_unsafe f)
  |> List.sort Finding.compare
