let map_array f xs =
  let n = Array.length xs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let result =
        match f xs.(i) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some result;
      work ()
    end
  in
  let width = min (n - 1) (Domain.recommended_domain_count () - 1) in
  let helpers = List.init (max 0 width) (fun _ -> Domain.spawn work) in
  work ();
  (* Joining orders every helper's writes to [results] before the reads
     below. *)
  List.iter Domain.join helpers;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results
