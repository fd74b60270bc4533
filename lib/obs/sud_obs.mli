(** Unified observability for the SUD reproduction.

    Everything the paper's argument rests on crosses the kernel↔driver
    boundary: uchan RPCs, IOMMU translations, config-space accesses,
    interrupt deliveries, supervisor state transitions.  This module is
    the single place that evidence is recorded:

    - {!Metrics}: a process-wide registry of named counters, gauges and
      log2-bucketed histograms.  Subsystems register their handles once
      at creation (labelled by BDF, channel, device name, …) and mutate
      them on the hot path at field-write cost; tooling snapshots the
      whole registry as a typed tree and renders it as a table or JSON.
    - {!Trace}: a bounded ring of timestamped spans with parent ids,
      emitted at the load-bearing boundary crossings, so a soak run
      yields a causal machine-readable timeline (JSONL) in which a DMA
      fault can be followed back to the RPC that provoked it.

    Tracing is disabled by default and compile-out cheap: every call
    site guards on {!Trace.on}, a single load-and-branch, so a disabled
    tracer allocates nothing on the datapath (the tier-1 case "trace:
    disabled, hot paths pinned by words" in [test/test_obs.ml] checks
    the exact minor words per op).

    Both render through {!Json}: the snapshot as one document, the
    spans as JSONL. *)

module Metrics : sig
  (** {1 Handles}

      Mutation is a single field write (plus one pointer load), so a
      handle can sit directly on a hot path where a [mutable int]
      used to be. *)

  type counter
  (** Monotonic event count. *)

  type gauge
  (** Instantaneous value, computed by a callback at snapshot time. *)

  type histogram
  (** Log2-bucketed value distribution: bucket [i] counts observations
      [v] with [2^i <= v < 2^(i+1)] ([v <= 1] lands in bucket 0).
      Invariant: the bucket counts always sum to the observation
      count. *)

  type registry

  val create_registry : unit -> registry

  (** {1 Registration}

      [subsystem] groups metrics in the snapshot tree ("iommu",
      "uchan", …); [labels] distinguish instances (BDF, channel name,
      driver generation). *)

  val counter :
    ?registry:registry -> ?labels:(string * string) list ->
    subsystem:string -> name:string -> unit -> counter

  val gauge :
    ?registry:registry -> ?labels:(string * string) list ->
    subsystem:string -> name:string -> (unit -> int) -> gauge

  val histogram :
    ?registry:registry -> ?labels:(string * string) list ->
    subsystem:string -> name:string -> unit -> histogram

  (** {1 Mutation and reads} *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val get : counter -> int
  val gauge_value : gauge -> int
  val observe : histogram -> int -> unit
  val hist_count : histogram -> int
  val hist_sum : histogram -> int
  val hist_buckets : histogram -> int array
  (** A copy of the 64 log2 bucket counts. *)

  (** {1 Snapshot: the typed tree} *)

  type value =
    | Counter of int
    | Gauge of int
    | Histogram of { buckets : (int * int) list;  (** (log2 bucket, count), nonzero only *)
                     count : int;
                     sum : int }

  type sample = { s_name : string; s_labels : (string * string) list; s_value : value }
  type group = { g_subsystem : string; g_samples : sample list }
  type snapshot = group list

  val snapshot : ?registry:registry -> unit -> snapshot
  (** Groups sorted by subsystem, samples by (name, labels). *)

  val to_json : snapshot -> Json.t
  (** One object per subsystem, one member per sample keyed
      [name{label=value,...}]. *)

  val render_table : snapshot -> string

  val snapshot_hash : ?registry:registry -> unit -> int64
  (** FNV-1a fingerprint of the snapshot's one-line JSON ({!Json.to_line};
      the snapshot is sorted, so it is canonical) — equal
      iff the registries' observable state is equal.  Runs a full major
      collection first so only live subsystems contribute (weak entries
      from torn-down worlds would otherwise leak GC timing into the
      hash).  sud-check compares this across record and replay runs. *)
end

module Trace : sig
  (** {1 Spans} *)

  type span = {
    sp_id : int;             (** unique since the last {!reset}, starting at 1 *)
    sp_parent : int;         (** 0 = no parent *)
    sp_ts : int;             (** clock at emission (engine ns) *)
    sp_dur : int;            (** 0 for instant events *)
    sp_cat : string;         (** subsystem: "uchan", "iommu", "sup", … *)
    sp_name : string;        (** event within the subsystem *)
    sp_attrs : (string * string) list;
  }

  val on : unit -> bool
  (** The call-site guard: a single load.  Every instrumentation point
      is [if Trace.on () then …] so a disabled tracer costs one
      branch and no allocation. *)

  val set_enabled : bool -> unit
  val set_clock : (unit -> int) -> unit
  (** Installed by [Kernel.boot] as [Engine.now]; defaults to a zero
      clock. *)

  val set_capacity : int -> unit
  (** Resize the ring (and {!reset} it).  Default 16384 spans. *)

  val emit :
    ?parent:int -> ?dur_ns:int -> ?attrs:(string * string) list ->
    cat:string -> name:string -> unit -> int
  (** Append a span; returns its id, or 0 when tracing is disabled.
      When the ring is full the oldest span is dropped (and counted),
      so the tail of a run is always retained. *)

  (** {1 Accounting}

      Invariant (the QCheck property): [emitted () = retained () +
      dropped ()] at all times. *)

  val emitted : unit -> int
  val retained : unit -> int
  val dropped : unit -> int

  val spans : unit -> span list
  (** Retained spans, oldest first. *)

  val reset : unit -> unit
  (** Clear spans, ids, correlation keys and the ambient span. *)

  (** {1 Causal context}

      Cross-layer causality without threading ids through every
      signature: a subsystem either sets the ambient current span for
      a dynamic extent ([with_current]) or publishes a correlation key
      ("uchan.rpc.last", "iommu.fault.last:<bdf>") that a downstream
      layer recalls as a parent. *)

  val current : unit -> int
  val with_current : int -> (unit -> 'a) -> 'a
  val remember : string -> int -> unit
  val recall : string -> int
  (** 0 when the key was never remembered (or since {!reset}). *)

  (** {1 JSONL export} *)

  val write_jsonl : path:string -> int
  (** The retained spans, oldest first, one {!Json.to_line} object per
      line.  Returns the number of spans written. *)

  val read_jsonl : path:string -> (span list, string) result
  (** The spans of a {!write_jsonl} file; [Error] on an unreadable file
      or on the first line that is not a span. *)

  val chain_exists : span list -> (string * string) list -> bool
  (** [chain_exists spans [(c1,n1); (c2,n2); …]] holds when spans
      s1, s2, … exist with [si] matching [(ci,ni)] and each
      [s(i+1).sp_parent = si.sp_id] — a direct causal chain. *)
end
