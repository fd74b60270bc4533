(* Shared test plumbing: build machines, attach NICs, run driver setups. *)

let mac_a = Skbuff.Mac.of_string "52:54:00:12:34:56"
let mac_b = Skbuff.Mac.of_string "52:54:00:ab:cd:ef"

(* Boot a fresh engine+kernel, run [setup] on it, then run [main] as a
   kernel fiber until it returns (bounded by [max_ms]). *)
let run_in_kernel ?iommu_mode ?enable_acs ?max_ms setup main =
  let k = Kernel.boot ?iommu_mode ?enable_acs (Engine.create ()) in
  let ctx = setup k in
  Kernel.run ?max_ms k (fun () -> main k ctx)

(* A machine with two e1000 NICs on one gigabit segment. *)
type duo = {
  medium : Net_medium.t;
  nic_a : E1000_dev.t;
  nic_b : E1000_dev.t;
  bdf_a : Bus.bdf;
  bdf_b : Bus.bdf;
}

let setup_duo ?(switched = false) (k : Kernel.t) =
  let medium = Net_medium.create k.Kernel.eng () in
  let nic_a = E1000_dev.create k.Kernel.eng ~mac:mac_a ~medium () in
  let nic_b = E1000_dev.create k.Kernel.eng ~mac:mac_b ~medium () in
  let bdf_a, bdf_b =
    if switched then begin
      let sw = Pci_topology.add_switch k.Kernel.topo ~parent:(Pci_topology.root_switch k.Kernel.topo) in
      let a = Kernel.attach_pci k ~switch:sw (E1000_dev.device nic_a) in
      let b = Kernel.attach_pci k ~switch:sw (E1000_dev.device nic_b) in
      (a, b)
    end
    else begin
      let a = Kernel.attach_pci k (E1000_dev.device nic_a) in
      let b = Kernel.attach_pci k (E1000_dev.device nic_b) in
      (a, b)
    end
  in
  { medium; nic_a; nic_b; bdf_a; bdf_b }

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

(* Bring up NIC B as a trusted in-kernel peer and return its netdev. *)
let up_native ?name k bdf =
  let dev = ok_or_fail "native attach" (Native_net.attach ?name k E1000.driver bdf) in
  ok_or_fail "ifconfig up" (Netstack.ifconfig_up k.Kernel.net dev);
  dev
