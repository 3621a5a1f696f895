(** The structured event seam shared by tracing and fault injection.

    A sink is just [event -> unit]. Every runtime layer that used to expose
    an ad-hoc hook (the VM [step_hook]s, [Engine.set_launch_hook]) now takes
    one optional sink and reports what happened as a typed event; consumers
    pattern-match on the constructors they care about and ignore the rest.
    It is the runtimes' only reporting path: lane utilization, the
    occupancy gauge, per-primitive lane counts and stack traffic are all
    read off {!Occupancy} events by {!Obs_prof}.

    Exceptions deliberately propagate: a sink that raises aborts the action
    it observes, exactly like the old hooks. In particular a sink raising on
    {!Step} aborts that superstep before the block executes, and raising on
    {!Launch} poisons the launch before any cost is charged — the seams the
    resilience layer's fault injector relies on. *)

type launch_kind = Kernel | Fused_block

type event =
  | Step of { shard : int; step : int; block : int }
      (** A VM superstep is about to execute [block]. [step] counts from 1;
          [shard] is 0 outside sharded runs. Fired after the scheduler
          picks, before the block runs. *)
  | Launch of { kind : launch_kind; name : string }
      (** A kernel or fused block is about to launch, before any cost is
          charged. This is the fault-injection point. *)
  | Launched of { kind : launch_kind; name : string; t0 : float; t1 : float }
      (** The same launch, after charging: a completed span on the engine's
          simulated clock. *)
  | Collective of { name : string; bytes : float; t0 : float; t1 : float }
      (** A mesh collective (all-reduce, all-gather) span. *)
  | Request_enqueued of { id : int; at : float }
  | Request_shed of { id : int; cls : string; at : float }
      (** A queued or offered request was dropped to make room. [cls] is
          the shed request's SLO class key ([Tenant.slo_name]), as on the
          two events below. *)
  | Request_rejected of { id : int; cls : string; reason : string; at : float }
      (** A request was refused on arrival. [reason] is the
          [Admission.reason_name] of an admission or input refusal
          (["queue-full"], ["overloaded:<level>"], ["invalid-input"],
          ["too-wide"]), or ["throttled"] for a token-bucket refusal. *)
  | Request_completed of {
      id : int;
      cls : string;
      queued : float;
      started : float;
      finished : float;
    }
      (** A served request's full lifecycle: queue wait [queued, started)
          then service [started, finished). *)
  | Checkpoint of { step : int; bytes : int }
  | Restore of { step : int; rolled_back : float }
      (** A runtime rewound to its last checkpoint. [rolled_back] is the
          simulated engine seconds the rewind took off the clock: spans
          a sink already saw that the engine no longer counts. *)
  | Occupancy of {
      shard : int;
      step : int;
      block : int;
      active : int;
      live : int;
      total : int;
      width : int;
      depth : int;
    }
      (** Lane occupancy for the superstep announced by the preceding
          {!Step}: of [total] batch lanes, [live] have not yet halted and
          [active] are executing the scheduled [block] (the rest of the
          live lanes are masked off — divergence waste; [total - live] is
          idle/drain waste). Invariant: [0 <= active <= live <= total].
          [width] is the simulated issue width: the lane count every
          operation of the block is priced over: [total] under masking,
          [active] when the runtime prices gathering the active rows
          ([Local_vm]'s [Gather_scatter], and [Adaptive] below its
          threshold). [Pc_vm] reports [total] even when its host computes
          a flop-heavy primitive on the active rows only: the engine
          still prices the paper's full-width masked execution. [depth] is the runtime's stack
          depth so far: the deepest pc or variable stack for the
          program-counter runtimes, the host-recursion frame depth for
          [Local_vm]. These are the only lane counts that cannot be
          derived from the block id and the program's static op table.
          Fired right after {!Step}, before the block runs, so a profiler
          can use it as the attribution context for the engine spans the
          block charges. *)
  | Migration of {
      src_shard : int;
      dst_shard : int;
      member : int;
      bytes : float;
      step : int;
    }
      (** A live batch member's lane state moved between lanes — within
          one shard ([src_shard = dst_shard], a [Sched_vm]
          defragmentation move) or across shards (a [Sched_vm] work steal,
          or a [Tenant_server] drain or cross-shard resume, priced by
          [Collectives.p2p_time]). [Tenant_server] reports only the
          cross-shard kind, one event per lane it counts in its
          [migrations] stat.
          [step] is the emitting runtime's round ([Sched_vm]'s planning
          round, [Tenant_server]'s serving round); [bytes] the migrated
          payload. Occupancy improvements then show up in
          the ordinary {!Occupancy} stream, and this event attributes
          them to the migrations that caused them. *)
  | Span of {
      trace : int;
      span : int;
      parent : int;
      track : int;
      name : string;
      t0 : float;
      t1 : float;
    }
      (** A completed request-scoped span on the simulated clock:
          [\[t0, t1\]] with [t0 = t1] for instants. [trace] groups the
          spans of one request (its [Request] id; negative traces are
          operational, e.g. [-1] for server-lifecycle spans and [-2] for
          program-cache spans, and are exempt from the one-root rule). [span] is the emitter's
          deterministic span id, [parent] the enclosing span's id ([-1]
          for roots), and [track] the Perfetto track — the tenant id for
          request traces, [-1] for the operational track. Emitters close
          spans before emitting, so consumers never see half-open
          intervals, and request trees are emitted only when the request
          leaves the recovery rollback window (exactly once per
          completion, kills or not). *)
  | Ladder of { level : string; occupancy : float; at : float }
      (** The admission degradation ladder settled on [level] (an
          {!Admission.level_name}) at occupancy [occupancy] — the event
          that makes rung changes explicable. *)
  | Slo_alert of {
      slo : string;
      fired : bool;
      burn_fast : float;
      burn_slow : float;
      at : float;
    }
      (** A multi-window burn-rate alert for SLO class [slo] changed
          state: [fired = true] when both window burn rates crossed the
          threshold, [false] when the alert resolved. *)
  | Round of { round : int; at : float }
      (** A serving round ended: [round] counts from 1 and [at] is the
          server clock after the round's advance. Readers that evaluate
          on a schedule ({!Obs_slo.sink} polls its windows) key on it;
          recorders and the profiler drop it. *)

type t = event -> unit

val fanout : t list -> t
(** Deliver each event to every sink, in list order. An exception from an
    earlier sink skips the later ones (and aborts the observed action). *)

val tag_shard : int -> t -> t
(** Rewrite the [shard] field of {!Step} and {!Occupancy} events (every
    other field is copied); other events pass through. [Sched_vm] uses
    this so one user sink sees correctly-labelled steps from every
    shard. *)

val kind_name : event -> string
(** Short stable tag for CSV export ("step", "launch", ..., "span",
    "ladder", "slo-alert", "round"). Every constructor maps to a distinct tag;
    existing tags never change (downstream CSV consumers key on them). *)
