(** Measurement helpers: running moments, histograms and confidence
    intervals.

    The benchmark harness stops sampling once the half-width of the
    confidence interval falls below a requested fraction of the mean, the
    same stopping rule netperf uses (the paper runs netperf "to report
    results accurate to 5% with 99% confidence"). *)

module Moments : sig
  (** Welford running mean / variance. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
  val stddev : t -> float

  val converged : t -> confidence:float -> accuracy:float -> bool
  (** True once at least three samples were taken and the CI half-width is
      below [accuracy *. mean]. *)
end

module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val quantile : t -> float -> float
  (** [quantile h 0.5] is the median.  Raises [Invalid_argument] on an empty
      histogram or a quantile outside [0,1]. *)

  val max : t -> float
  val min : t -> float
end
