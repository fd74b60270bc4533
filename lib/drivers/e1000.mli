(** The e1000 Gigabit Ethernet driver, written once against
    {!Driver_api} and runnable unmodified either in-kernel
    ({!Native_net.attach}) or as an untrusted SUD process
    ({!Driver_host.launch} with the net class) — the paper's e1000e.

    Faithful to the real driver where it matters to SUD:
    - descriptor rings and packet buffers allocated from DMA-capable
      memory (Figure 9's regions);
    - the MAC address read from the EEPROM through EERD;
    - interrupt handling driven by ICR with TX-completion cleanup;
    - the §4.2 blocking-probe quirk: [ni_open] self-tests the interrupt
      path by raising an interrupt and sleeping, so it {e must} run in a
      context where interrupts keep being dispatched (SUD-UML's worker
      threads). *)

val driver : Driver_api.net_driver

val tx_ring_size : int
