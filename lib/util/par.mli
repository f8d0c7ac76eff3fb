(** A parallel map for independent units of work (attack-matrix cells,
    bench configurations).

    [map_array f xs] applies [f] to every element of [xs] and returns
    the results in order. The calling domain and up to
    [Domain.recommended_domain_count () - 1] spawned domains take
    indices from one shared atomic counter, so the width follows the
    cores the runtime can observe; with one core or at most one item
    everything runs inline on the caller. Every item runs even when
    some raise; afterwards the exception of the lowest failed index is
    re-raised with its original backtrace. [f] must tolerate running
    concurrently with itself on other elements. *)

val map_array : ('a -> 'b) -> 'a array -> 'b array
