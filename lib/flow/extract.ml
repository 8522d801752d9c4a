module Machine = Mitos_isa.Machine
module Instr = Mitos_isa.Instr

type event =
  | Copy of { srcs : Loc.t list; dsts : Loc.t list }
  | Compute of { srcs : Loc.t list; dsts : Loc.t list }
  | Addr_dep of { addr_srcs : Loc.t list; dsts : Loc.t list }
  | Branch_point of { cond_srcs : Loc.t list; scope_end : int; taken : bool }
  | Indirect_jump of { target_srcs : Loc.t list }
  | Sys_source of { addr : int; len : int; source : int }
  | Sys_sink of { addr : int; len : int; sink : int }
  | Sys_snapshot of { addr : int; len : int; key : int }
  | Sys_clear_reg of int

type t = { postdom : Postdom.t }

let create prog = { postdom = Postdom.compute prog }
let postdom t = t.postdom

let sys_events effects =
  List.concat_map
    (function
      | Machine.Sys_wrote_mem { addr; len; source } ->
        [ Sys_source { addr; len; source } ]
      | Machine.Sys_read_mem { addr; len; sink } -> [ Sys_sink { addr; len; sink } ]
      | Machine.Sys_snapshot_mem { addr; len; key } ->
        [ Sys_snapshot { addr; len; key } ]
      | Machine.Sys_set_reg { reg } -> [ Sys_clear_reg reg ]
      | Machine.Sys_halt -> [])
    effects

(* -- shared register-only events --------------------------------------

   A register-only record's events are a pure function of its register
   numbers, and neither the engine nor any other consumer mutates an
   event. So the locations, source lists and whole event lists of these
   records are built once, here, and shared: most records of a trace
   then allocate nothing. Register numbers outside the machine's file
   (which no validated program produces) fall back to fresh values. *)

let num_regs = Instr.num_regs
let in_file r = r >= 0 && r < num_regs

(* [build r], from [table] when [r] is in the register file *)
let by_reg table build r =
  if in_file r then Array.unsafe_get table r else build r

(* [build a b], from [table] (indexed [a * num_regs + b]) when both
   registers are in the file *)
let by_pair table build a b =
  if in_file a && in_file b then Array.unsafe_get table ((a * num_regs) + b)
  else build a b

let reg_table build = Array.init num_regs build

let pair_table build =
  Array.init (num_regs * num_regs) (fun i ->
      build (i / num_regs) (i mod num_regs))

let make_one r = [ Loc.Reg r ]
let ones = reg_table make_one
let one r = by_reg ones make_one r
let make_pair a b = [ Loc.Reg a; Loc.Reg b ]
let pairs = pair_table make_pair
let make_li rd = [ Copy { srcs = []; dsts = one rd } ]
let li_events = reg_table make_li
let make_mov rd rs = [ Copy { srcs = one rs; dsts = one rd } ]
let mov_events = pair_table make_mov
let make_bini rd rs = [ Compute { srcs = one rs; dsts = one rd } ]
let bini_events = pair_table make_bini
let make_jr rs = [ Indirect_jump { target_srcs = one rs } ]
let jr_events = reg_table make_jr

let events_of_record t (r : Machine.exec_record) =
  match r.instr with
  | Instr.Li (rd, _) -> by_reg li_events make_li rd
  | Instr.Mov (rd, rs) -> by_pair mov_events make_mov rd rs
  | Instr.Bin (_, rd, rs1, rs2) ->
    [ Compute { srcs = by_pair pairs make_pair rs1 rs2; dsts = one rd } ]
  | Instr.Bini (_, rd, rs, _) -> by_pair bini_events make_bini rd rs
  | Instr.Load (_, rd, rb, _) ->
    let addr, len =
      match r.mem_read with
      | Some al -> al
      | None -> assert false (* loads always read memory *)
    in
    let dsts = one rd in
    [
      Copy { srcs = Loc.mem_range addr len; dsts };
      Addr_dep { addr_srcs = one rb; dsts };
    ]
  | Instr.Store (_, rs, rb, _) ->
    let addr, len =
      match r.mem_write with
      | Some al -> al
      | None -> assert false (* stores always write memory *)
    in
    let dsts = Loc.mem_range addr len in
    [ Copy { srcs = one rs; dsts }; Addr_dep { addr_srcs = one rb; dsts } ]
  | Instr.Branch (_, rs1, rs2, _) ->
    let taken = match r.taken with Some b -> b | None -> assert false in
    [
      Branch_point
        {
          cond_srcs = by_pair pairs make_pair rs1 rs2;
          scope_end = Postdom.scope_end t.postdom r.pc;
          taken;
        };
    ]
  | Instr.Jr rs -> by_reg jr_events make_jr rs
  | Instr.Syscall _ -> sys_events r.sys_effects
  | Instr.Jmp _ | Instr.Nop | Instr.Halt -> []

let written_locs (r : Machine.exec_record) =
  let regs =
    match r.reg_write with Some (reg, _) -> [ Loc.Reg reg ] | None -> []
  in
  let mems =
    match r.mem_write with
    | Some (addr, len) -> Loc.mem_range addr len
    | None -> []
  in
  let sys =
    List.concat_map
      (function
        | Machine.Sys_wrote_mem { addr; len; _ } -> Loc.mem_range addr len
        | Machine.Sys_set_reg { reg } -> [ Loc.Reg reg ]
        | Machine.Sys_read_mem _ | Machine.Sys_snapshot_mem _
        | Machine.Sys_halt ->
          [])
      r.sys_effects
  in
  regs @ mems @ sys

let pp_locs ppf locs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Loc.pp ppf locs

let pp_event ppf = function
  | Copy { srcs; dsts } ->
    Format.fprintf ppf "copy %a -> %a" pp_locs srcs pp_locs dsts
  | Compute { srcs; dsts } ->
    Format.fprintf ppf "compute %a -> %a" pp_locs srcs pp_locs dsts
  | Addr_dep { addr_srcs; dsts } ->
    Format.fprintf ppf "addr-dep %a -> %a" pp_locs addr_srcs pp_locs dsts
  | Branch_point { cond_srcs; scope_end; taken } ->
    Format.fprintf ppf "branch %a scope-end=%d taken=%b" pp_locs cond_srcs
      scope_end taken
  | Indirect_jump { target_srcs } ->
    Format.fprintf ppf "ijump %a" pp_locs target_srcs
  | Sys_source { addr; len; source } ->
    Format.fprintf ppf "source@%d+%d src=%d" addr len source
  | Sys_sink { addr; len; sink } ->
    Format.fprintf ppf "sink@%d+%d sink=%d" addr len sink
  | Sys_snapshot { addr; len; key } ->
    Format.fprintf ppf "snapshot@%d+%d key=%d" addr len key
  | Sys_clear_reg r -> Format.fprintf ppf "clear r%d" r
