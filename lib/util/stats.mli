(** Descriptive statistics for benchmark and workload reporting. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); 0 when n < 2. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation on the
    sorted copy ([Float.compare] ordering). Raises [Invalid_argument] on
    an empty array, a [p] outside the range, or any NaN input. *)

val summarize : float array -> summary
(** Full summary (sorts once). Raises [Invalid_argument] on an empty
    array or any NaN input. *)
