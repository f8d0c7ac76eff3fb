(** The paper's source-to-source UID transformation (Section 3.3),
    automated.

    The transformation has two parts:

    {b Instrumentation} (identical for every variant, so the variants'
    system-call sequences stay aligned):
    - {e explication}: implicit UID constants are made explicit —
      [!uid_expr] becomes [uid_expr == 0], a bare [uid_expr] used as a
      condition becomes [uid_expr != 0] (the paper's
      [if(!getuid())] → [if(getuid()==0)] example);
    - {e comparison exposure}: UID-to-UID comparisons become the
      Table 2 [cc_*] detection calls (mode {!Cc_calls}), or are left in
      user space (mode {!User_space}, the Section 5 alternative);
    - {e conditional exposure}: [if]/[while] conditions influenced by
      UID data are wrapped in [cond_chk];
    - {e value exposure}: UID values passed to user functions or
      returned from them are wrapped in [uid_value].

    {b Reexpression} (per variant): every explicit UID constant
    [(uid_t)lit] is replaced by [(uid_t)R_i(lit)], and in {!User_space}
    mode UID order comparisons are logically reversed for variants
    whose reexpression function reverses the order of the low 31 bits.

    The per-category change counts are reported, mirroring the paper's
    accounting of its 73 manual Apache changes (15 constants, 16
    uid_value, 22 comparison exposures, 20 cond_chk). *)

type mode =
  | Cc_calls  (** comparisons exposed as [cc_*] syscalls (the paper's design) *)
  | User_space
      (** the Section 5 alternative: rely on the existing syscall-
          boundary monitoring alone — no [cc_*], [cond_chk] or
          [uid_value] insertion; comparisons stay in user space and
          order comparisons are logically reversed in variants whose
          reexpression function reverses the value order. Cheaper, but
          corruption is only caught at the next real UID-bearing
          kernel call (coarser detection). *)

type report = {
  constants : int;  (** reexpressed constant sites *)
  explications : int;  (** implicit constants made explicit (subset of sites) *)
  uid_value_calls : int;
  cc_calls : int;
  cond_chks : int;
  reversed_comparisons : int;  (** User_space mode, order-reversing variants *)
  log_scrubs : int;  (** UID values removed from log/write output *)
}

val total_changes : report -> int
(** Sum of all categories except [explications] (an explication site is
    also a constant site, as in the paper's counting). *)

val pp_report : Format.formatter -> report -> unit

val instrument :
  ?mode:mode -> ?scrub_logs:bool -> Nv_minic.Tast.tprogram -> Nv_minic.Tast.tprogram * report
(** Variant-independent instrumentation (default mode {!Cc_calls},
    [scrub_logs] true). The result must be fed to {!reexpress} for each
    variant. The report's [constants] counts the sites that
    {!reexpress} will rewrite. *)

val reexpress :
  ?mode:mode -> f:Nv_core.Reexpression.t -> Nv_minic.Tast.tprogram -> Nv_minic.Tast.tprogram
(** Apply a variant's reexpression function to every UID constant; in
    {!User_space} mode, also reverse UID order comparisons when [f] is
    order-reversing (detected by probing [f] on 0 and 1). *)

val transform_source :
  ?mode:mode ->
  ?scrub_logs:bool ->
  variation:Nv_core.Variation.t ->
  string ->
  (Nv_vm.Image.t array * report, string) result
(** End to end: parse, typecheck, instrument once, reexpress and
    compile per variant. Returns one image per variant of the
    variation. *)

val variant_source : ?mode:mode -> f:Nv_core.Reexpression.t -> string -> (string, string) result
(** Pretty-printed mini-C source of one transformed variant — the
    paper-style "diff view" used by examples. *)
