module Variation = Nv_core.Variation
module Nsystem = Nv_core.Nsystem
module Ut = Nv_transform.Uid_transform

type config =
  | Unmodified_single
  | Transformed_single
  | Two_variant_address
  | Two_variant_uid
  | Shared_key_three
  | Rotation_only_three
  | Seeded_three
  | Composed_three
  | Composed_four

let all = [ Unmodified_single; Transformed_single; Two_variant_address; Two_variant_uid ]

let extended =
  [ Shared_key_three; Rotation_only_three; Seeded_three; Composed_three; Composed_four ]

let matrix = all @ extended

let name = function
  | Unmodified_single -> "config1"
  | Transformed_single -> "config2"
  | Two_variant_address -> "config3"
  | Two_variant_uid -> "config4"
  | Shared_key_three -> "sharedkey3"
  | Rotation_only_three -> "rotonly3"
  | Seeded_three -> "seeded3"
  | Composed_three -> "composed3"
  | Composed_four -> "composed4"

let description = function
  | Unmodified_single -> "Unmodified httpd, single process"
  | Transformed_single -> "UID-transformed httpd, single process"
  | Two_variant_address -> "2-variant address-space partitioning"
  | Two_variant_uid -> "2-variant UID data diversity"
  | Shared_key_three -> "3-variant UID diversity, pre-fix shared key (vulnerable)"
  | Rotation_only_three -> "3-variant bare-rotation reexpression (single axis, vulnerable)"
  | Seeded_three -> "3-variant per-boot seeded XOR masks"
  | Composed_three -> "3-variant composed diversity (bases + tags + rotation/XOR keys)"
  | Composed_four -> "4-variant composed diversity (bases + tags + rotation/XOR keys)"

(* The seeded column must be reproducible across the bench, the CLI
   and the tests, so the "boot" seed is pinned here; a real deployment
   would draw it at startup. *)
let seeded_boot_seed = 0xB007

let variation = function
  | Unmodified_single -> Variation.single
  | Transformed_single -> Variation.single
  | Two_variant_address -> Variation.address_partition
  | Two_variant_uid -> Variation.uid_diversity
  | Shared_key_three -> Variation.shared_key 3
  | Rotation_only_three -> Variation.rotation_only 3
  | Seeded_three -> Variation.seeded_diversity ~seed:seeded_boot_seed 3
  | Composed_three -> Variation.full_diversity_n 3
  | Composed_four -> Variation.full_diversity_n 4

let world ?users variation =
  let vfs = Nsystem.standard_vfs ?users ~variation () in
  Site.install vfs;
  vfs

let build ?(log_uid = true) ?mode ?engine ?recover ?users config =
  let variation = variation config in
  let vfs = world ?users variation in
  let source = Httpd_source.source ~log_uid () in
  match config with
  | Unmodified_single | Two_variant_address ->
    (match Nv_minic.Codegen.compile_source source with
    | image -> Ok (Nsystem.of_one_image ~vfs ?engine ?recover ~variation image)
    | exception Nv_minic.Codegen.Error message -> Error message)
  | Transformed_single | Two_variant_uid | Shared_key_three | Rotation_only_three
  | Seeded_three | Composed_three | Composed_four -> (
    match Ut.transform_source ?mode ~variation source with
    | Error _ as e -> e
    | Ok (images, _report) ->
      Ok (Nsystem.create ~vfs ?engine ?recover ~variation images))

let transform_report ?(log_uid = true) ?mode () =
  let source = Httpd_source.source ~log_uid () in
  match Ut.transform_source ?mode ~variation:Variation.uid_diversity source with
  | Error _ as e -> e
  | Ok (_images, report) -> Ok report
