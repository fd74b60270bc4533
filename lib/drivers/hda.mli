(** snd-hda-intel-class audio driver: a cyclic buffer described by a BDL,
    period interrupts refilling it from a pending PCM queue, and codec
    verbs for volume.  Runs unmodified in-kernel or under SUD; under SUD a
    glitch-free stream demonstrates that a user-space driver can hold a
    real-time workload (paper §4.1 suggests [sched_setscheduler] for
    exactly this). *)

val driver : Driver_api.audio_driver

val period_bytes : int
