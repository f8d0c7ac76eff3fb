(** Deployment of the case-study server in the four evaluation
    configurations of Table 3, plus the N=3/4 portfolio columns of the
    extended attack matrix. *)

type config =
  | Unmodified_single
      (** Configuration 1: untransformed server, one variant. *)
  | Transformed_single
      (** Configuration 2: UID-transformed server (detection calls
          inserted, identity reexpression), one variant — measures the
          cost of the code transformation alone. *)
  | Two_variant_address
      (** Configuration 3: two untransformed variants under
          address-space partitioning with the unshared-file-capable
          kernel — the redundant-execution baseline. *)
  | Two_variant_uid
      (** Configuration 4: the paper's UID variation — two variants,
          address partitioning, UID reexpression, unshared passwd. *)
  | Shared_key_three
      (** The pre-fix 3-variant deployment whose variants 1 and 2
          share one XOR key ({!Nv_core.Variation.shared_key}) — the
          regression column: the guessed-key injection escalates here
          undetected. *)
  | Rotation_only_three
      (** Three variants with bare rotations — not pairwise disjoint
          (every rotation fixes 0), so the zero-injection column
          demonstrates the single-axis defeat. *)
  | Seeded_three
      (** Three variants with per-boot seeded XOR masks (boot seed
          pinned for reproducibility). *)
  | Composed_three
      (** Three variants composing all axes: staggered bases, distinct
          instruction tags, per-variant UID keys. *)
  | Composed_four  (** The same composition over four variants. *)

val all : config list
(** The paper's four Table 3 configurations — the perf-bench set. *)

val extended : config list
(** The N=3/4 portfolio columns added by the extended attack matrix. *)

val matrix : config list
(** [all @ extended] — every column of the attack matrix. *)

val name : config -> string
(** "config1" .. "config4", then "sharedkey3", "rotonly3", "seeded3",
    "composed3", "composed4". *)

val description : config -> string

val variation : config -> Nv_core.Variation.t

val build :
  ?log_uid:bool ->
  ?mode:Nv_transform.Uid_transform.mode ->
  ?engine:Nv_vm.Memory.engine ->
  ?recover:Nv_core.Supervisor.config ->
  ?users:int ->
  config ->
  (Nv_core.Nsystem.t, string) result
(** Compile (and transform, for configurations 2 and 4) the server,
    populate the world (standard files + document root + diversified
    unshared copies), and assemble the system. Each call builds a fresh
    system. [engine] as in {!Nv_core.Monitor.create}; [recover]
    attaches a recovery supervisor as in {!Nv_core.Nsystem.create};
    [users] appends that many synthetic passwd entries to the world as
    in {!Nv_core.Nsystem.standard_vfs} (keep it modest — the guest
    rescans [/etc/passwd] at startup). *)

val transform_report :
  ?log_uid:bool ->
  ?mode:Nv_transform.Uid_transform.mode ->
  unit ->
  (Nv_transform.Uid_transform.report, string) result
(** The change-count report of transforming the server source — the
    experiment X1 analogue of the paper's 73 Apache changes. *)
