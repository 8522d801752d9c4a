open Mitos_isa
open Mitos_flow

(* -- Loc ---------------------------------------------------------------- *)

let test_loc_basics () =
  Alcotest.(check bool) "reg eq" true (Loc.equal (Loc.Reg 1) (Loc.Reg 1));
  Alcotest.(check bool) "reg/mem differ" false (Loc.equal (Loc.Reg 1) (Loc.Mem 1));
  Alcotest.(check int) "mem_range length" 4 (List.length (Loc.mem_range 100 4));
  Alcotest.(check bool) "mem_range contents" true
    (Loc.mem_range 100 2 = [ Loc.Mem 100; Loc.Mem 101 ]);
  Alcotest.(check bool) "is_reg" true (Loc.is_reg (Loc.Reg 0));
  Alcotest.(check bool) "is_mem" true (Loc.is_mem (Loc.Mem 0))

(* A diamond:
   0: branch eq r1,r2 -> 3
   1: li r3, 1
   2: jmp 4
   3: li r3, 2
   4: halt            <- join point
*)
let diamond =
  Program.make
    [|
      Instr.Branch (Instr.Eq, 1, 2, 3);
      Instr.Li (3, 1);
      Instr.Jmp 4;
      Instr.Li (3, 2);
      Instr.Halt;
    |]

(* A loop:
   0: li r1, 0
   1: branch geu r1,r2 -> 4     <- loop header
   2: bini add r1, r1, 1
   3: jmp 1
   4: halt
*)
let loop =
  Program.make
    [|
      Instr.Li (1, 0);
      Instr.Branch (Instr.Geu, 1, 2, 4);
      Instr.Bini (Instr.Add, 1, 1, 1);
      Instr.Jmp 1;
      Instr.Halt;
    |]

(* -- Cfg ----------------------------------------------------------------- *)

let test_cfg_diamond () =
  let cfg = Cfg.build diamond in
  Alcotest.(check int) "4 blocks" 4 (Cfg.num_blocks cfg);
  let entry = Cfg.entry cfg in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ]
    (List.sort compare entry.Cfg.succs);
  let join = Cfg.block_of_instr cfg 4 in
  Alcotest.(check (list int)) "join preds" [ 1; 2 ]
    (List.sort compare (Cfg.preds cfg join.Cfg.id))

let test_cfg_loop () =
  let cfg = Cfg.build loop in
  let header = Cfg.block_of_instr cfg 1 in
  Alcotest.(check bool) "header has two succs" true
    (List.length header.Cfg.succs = 2);
  let body = Cfg.block_of_instr cfg 2 in
  Alcotest.(check (list int)) "body loops back" [ header.Cfg.id ]
    body.Cfg.succs

let test_cfg_block_of_instr () =
  let cfg = Cfg.build diamond in
  let b = Cfg.block_of_instr cfg 1 in
  Alcotest.(check bool) "instr in bounds" true
    (b.Cfg.first <= 1 && 1 <= b.Cfg.last)

(* -- Postdom -------------------------------------------------------------- *)

let test_postdom_diamond () =
  let pd = Postdom.compute diamond in
  Alcotest.(check int) "branch ipdom = join" 4 (Postdom.ipdom pd 0);
  Alcotest.(check int) "then-side flows to jmp" 2 (Postdom.ipdom pd 1);
  Alcotest.(check int) "else-side flows to join" 4 (Postdom.ipdom pd 3);
  Alcotest.(check bool) "join postdominates branch" true
    (Postdom.postdominates pd 4 0);
  Alcotest.(check bool) "then does not postdominate branch" false
    (Postdom.postdominates pd 1 0)

let test_postdom_loop () =
  let pd = Postdom.compute loop in
  (* everything that leaves the loop goes through instruction 4 *)
  Alcotest.(check int) "loop branch ipdom = exit instr" 4 (Postdom.ipdom pd 1);
  Alcotest.(check bool) "halt postdominated by virtual exit" true
    (Postdom.postdominates pd (Postdom.exit_node pd) 4)

let test_postdom_straight_line () =
  let p = Program.make [| Instr.Nop; Instr.Nop; Instr.Halt |] in
  let pd = Postdom.compute p in
  Alcotest.(check int) "0 -> 1" 1 (Postdom.ipdom pd 0);
  Alcotest.(check int) "1 -> 2" 2 (Postdom.ipdom pd 1);
  Alcotest.(check int) "halt -> exit" (Postdom.exit_node pd) (Postdom.ipdom pd 2)

let test_postdom_jr_conservative () =
  let p = Program.make [| Instr.Li (1, 2); Instr.Jr 1; Instr.Halt |] in
  let pd = Postdom.compute p in
  (* Jr has unknown targets: connected to virtual exit *)
  Alcotest.(check int) "jr ipdom is exit" (Postdom.exit_node pd)
    (Postdom.ipdom pd 1)

let test_postdom_infinite_loop () =
  let p = Program.make [| Instr.Jmp 0 |] in
  let pd = Postdom.compute p in
  (* unreachable-from-exit nodes report the exit conservatively *)
  Alcotest.(check int) "infinite loop" (Postdom.exit_node pd)
    (Postdom.ipdom pd 0)

let test_cfg_dominators () =
  let cfg = Cfg.build diamond in
  let idom = Cfg.dominators cfg in
  let entry = (Cfg.entry cfg).Cfg.id in
  let join = (Cfg.block_of_instr cfg 4).Cfg.id in
  Alcotest.(check int) "entry self-dominated" entry idom.(entry);
  Alcotest.(check int) "join dominated by entry" entry idom.(join);
  Alcotest.(check bool) "arms dominated by entry" true
    (idom.((Cfg.block_of_instr cfg 1).Cfg.id) = entry
    && idom.((Cfg.block_of_instr cfg 3).Cfg.id) = entry)

let test_cfg_loops () =
  Alcotest.(check int) "diamond has no loops" 0
    (List.length (Cfg.loops (Cfg.build diamond)));
  let cfg = Cfg.build loop in
  (match Cfg.loops cfg with
  | [ l ] ->
    Alcotest.(check int) "header is the branch block"
      (Cfg.block_of_instr cfg 1).Cfg.id l.Cfg.header;
    Alcotest.(check bool) "body holds header and latch" true
      (List.mem l.Cfg.header l.Cfg.body
      && List.mem l.Cfg.back_edge_from l.Cfg.body);
    Alcotest.(check bool) "exit block outside the body" false
      (List.mem (Cfg.block_of_instr cfg 4).Cfg.id l.Cfg.body)
  | l -> Alcotest.failf "expected 1 loop, got %d" (List.length l));
  (* nested: outer loop 1..8, inner loop 3..5 *)
  let nested =
    Mitos_isa.Program.make
      [|
        Instr.Li (1, 0); (* 0 *)
        Instr.Branch (Instr.Geu, 1, 2, 9); (* 1: outer header *)
        Instr.Li (3, 0); (* 2 *)
        Instr.Branch (Instr.Geu, 3, 4, 7); (* 3: inner header *)
        Instr.Bini (Instr.Add, 3, 3, 1); (* 4 *)
        Instr.Jmp 3; (* 5: inner latch *)
        Instr.Nop; (* 6 (dead) *)
        Instr.Bini (Instr.Add, 1, 1, 1); (* 7 *)
        Instr.Jmp 1; (* 8: outer latch *)
        Instr.Halt; (* 9 *)
      |]
  in
  let cfg = Cfg.build nested in
  let loops = Cfg.loops cfg in
  Alcotest.(check int) "two nested loops" 2 (List.length loops);
  (match loops with
  | [ a; b ] ->
    let outer, inner = if List.length a.Cfg.body > List.length b.Cfg.body then (a, b) else (b, a) in
    Alcotest.(check bool) "inner body inside outer body" true
      (List.for_all (fun blk -> List.mem blk outer.Cfg.body) inner.Cfg.body)
  | _ -> ())

(* Reference implementation: postdominator *sets* by naive fixpoint.
   pdom(exit) = {exit}; pdom(n) = {n} + intersection of pdom over
   successors. The immediate postdominator of n is the element of
   pdom(n)\{n} whose own pdom set is largest (the closest one). *)
module ISet = Set.Make (Int)

let reference_pdoms prog =
  let n = Mitos_isa.Program.length prog in
  let exit_node = n in
  let succs i =
    if i = exit_node then []
    else
      match Mitos_isa.Program.instr prog i with
      | Mitos_isa.Instr.Halt | Mitos_isa.Instr.Jr _ -> [ exit_node ]
      | instr ->
        Mitos_isa.Instr.branch_targets instr ~next:(i + 1)
        |> List.map (fun t -> if t >= n then exit_node else t)
  in
  let universe = ISet.of_list (List.init (n + 1) Fun.id) in
  let pdom = Array.make (n + 1) universe in
  pdom.(exit_node) <- ISet.singleton exit_node;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let inter =
        match succs i with
        | [] -> ISet.empty
        | s :: rest ->
          List.fold_left (fun acc x -> ISet.inter acc pdom.(x)) pdom.(s) rest
      in
      let next = ISet.add i inter in
      if not (ISet.equal next pdom.(i)) then begin
        pdom.(i) <- next;
        changed := true
      end
    done
  done;
  (* nodes with no path to exit (infinite loops) keep vacuous sets;
     compute reachability so callers can exclude them *)
  let reaches_exit = Array.make (n + 1) false in
  reaches_exit.(exit_node) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if
        (not reaches_exit.(i))
        && List.exists (fun s -> reaches_exit.(s)) (succs i)
      then begin
        reaches_exit.(i) <- true;
        changed := true
      end
    done
  done;
  (pdom, reaches_exit, exit_node)

let random_program rng len =
  let open Mitos_isa.Instr in
  let instrs =
    Array.init (len - 1) (fun _ ->
        match Mitos_util.Rng.int rng 5 with
        | 0 -> Branch (Eq, 0, 1, Mitos_util.Rng.int rng len)
        | 1 -> Jmp (Mitos_util.Rng.int rng len)
        | 2 -> Nop
        | 3 -> Li (2, 7)
        | _ -> Bin (Add, 3, 0, 1))
  in
  Mitos_isa.Program.make (Array.append instrs [| Halt |])

let test_postdom_matches_reference () =
  let rng = Mitos_util.Rng.create 2024 in
  for _ = 1 to 60 do
    let prog = random_program rng (4 + Mitos_util.Rng.int rng 20) in
    let pd = Postdom.compute prog in
    let pdoms, reaches_exit, exit_node = reference_pdoms prog in
    ignore exit_node;
    for i = 0 to Mitos_isa.Program.length prog - 1 do
      let strict = ISet.remove i pdoms.(i) in
      if reaches_exit.(i) then begin
        (* reachable-to-exit: ipdom must be the closest strict
           postdominator *)
        let closest =
          ISet.fold
            (fun x best ->
              match best with
              | None -> Some x
              | Some b ->
                if ISet.cardinal pdoms.(x) > ISet.cardinal pdoms.(b) then
                  Some x
                else best)
            strict None
        in
        match closest with
        | Some expected ->
          Alcotest.(check int)
            (Printf.sprintf "ipdom of %d" i)
            expected (Postdom.ipdom pd i)
        | None -> ()
      end
    done
  done

(* -- Extract --------------------------------------------------------------- *)

let record_for prog idx regs =
  (* execute just instruction [idx] on a machine with given regs *)
  let m = Machine.create ~mem_size:4096 prog in
  List.iteri (fun i v -> Machine.set_reg m i v) regs;
  let rec skip () =
    if Machine.pc m = idx then Option.get (Machine.step m)
    else begin
      ignore (Machine.step m);
      skip ()
    end
  in
  skip ()

let test_extract_direct () =
  let p =
    Program.make
      [| Instr.Mov (2, 1); Instr.Bin (Instr.Add, 3, 1, 2); Instr.Halt |]
  in
  let ex = Extract.create p in
  let r = record_for p 0 [] in
  (match Extract.events_of_record ex r with
  | [ Extract.Copy { srcs = [ Loc.Reg 1 ]; dsts = [ Loc.Reg 2 ] } ] -> ()
  | _ -> Alcotest.fail "mov should be a single copy");
  let r = record_for p 1 [] in
  match Extract.events_of_record ex r with
  | [ Extract.Compute { srcs = [ Loc.Reg 1; Loc.Reg 2 ]; dsts = [ Loc.Reg 3 ] } ] ->
    ()
  | _ -> Alcotest.fail "bin should be a single compute"

let test_extract_load_store () =
  let p =
    Program.make
      [|
        Instr.Load (Instr.W32, 2, 1, 0); Instr.Store (Instr.W8, 2, 1, 4);
        Instr.Halt;
      |]
  in
  let ex = Extract.create p in
  let r = record_for p 0 [ 0; 100 ] in
  (match Extract.events_of_record ex r with
  | [ Extract.Copy { srcs; dsts = [ Loc.Reg 2 ] };
      Extract.Addr_dep { addr_srcs = [ Loc.Reg 1 ]; dsts = [ Loc.Reg 2 ] } ] ->
    Alcotest.(check int) "word load reads 4 bytes" 4 (List.length srcs)
  | _ -> Alcotest.fail "load should be copy + addr-dep");
  let r = record_for p 1 [ 0; 100; 7 ] in
  match Extract.events_of_record ex r with
  | [ Extract.Copy { srcs = [ Loc.Reg 2 ]; dsts = [ Loc.Mem 104 ] };
      Extract.Addr_dep { addr_srcs = [ Loc.Reg 1 ]; dsts = [ Loc.Mem 104 ] } ] ->
    ()
  | _ -> Alcotest.fail "store should be copy + addr-dep at base+off"

let test_extract_branch_scope () =
  let ex = Extract.create diamond in
  let r = record_for diamond 0 [ 0; 1; 2 ] in
  match Extract.events_of_record ex r with
  | [ Extract.Branch_point { cond_srcs; scope_end; taken } ] ->
    Alcotest.(check bool) "cond srcs" true
      (cond_srcs = [ Loc.Reg 1; Loc.Reg 2 ]);
    Alcotest.(check int) "scope ends at ipdom" 4 scope_end;
    Alcotest.(check bool) "not taken (1<>2)" false taken
  | _ -> Alcotest.fail "branch should be a branch point"

let test_extract_ijump_and_empty () =
  let p = Program.make [| Instr.Li (1, 2); Instr.Jr 1; Instr.Halt |] in
  let ex = Extract.create p in
  let r = record_for p 1 [] in
  (match Extract.events_of_record ex r with
  | [ Extract.Indirect_jump { target_srcs = [ Loc.Reg 1 ] } ] -> ()
  | _ -> Alcotest.fail "jr should be indirect jump");
  let r = record_for p 0 [] in
  (* Li produces a clearing copy with no sources *)
  match Extract.events_of_record ex r with
  | [ Extract.Copy { srcs = []; dsts = [ Loc.Reg 1 ] } ] -> ()
  | _ -> Alcotest.fail "li should clear"

(* Register-only records make up most of a trace, and their events are
   shared values: extracting them allocates nothing. *)
let test_extract_register_only_allocates_nothing () =
  let p =
    Program.make
      [|
        Instr.Li (1, 2); Instr.Mov (2, 1); Instr.Bini (Instr.Add, 3, 2, 1);
        Instr.Jr 3; Instr.Halt;
      |]
  in
  let ex = Extract.create p in
  let records = Array.init 4 (fun i -> record_for p i []) in
  let words n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      for i = 0 to Array.length records - 1 do
        ignore (Extract.events_of_record ex records.(i))
      done
    done;
    Gc.minor_words () -. w0
  in
  let idle = words 0 in
  Alcotest.(check (float 0.0)) "words for 1000 rounds" 0.0 (words 1000 -. idle)

let test_extract_syscall_events () =
  let handler _m ~sysno:_ =
    [
      Machine.Sys_wrote_mem { addr = 10; len = 3; source = 5 };
      Machine.Sys_read_mem { addr = 20; len = 2; sink = 1 };
      Machine.Sys_set_reg { reg = 1 };
    ]
  in
  let p = Program.make [| Instr.Syscall 1; Instr.Halt |] in
  let m = Machine.create ~mem_size:256 ~syscall:handler p in
  let ex = Extract.create p in
  let r = Option.get (Machine.step m) in
  match Extract.events_of_record ex r with
  | [ Extract.Sys_source { addr = 10; len = 3; source = 5 };
      Extract.Sys_sink { addr = 20; len = 2; sink = 1 };
      Extract.Sys_clear_reg 1 ] ->
    ()
  | _ -> Alcotest.fail "syscall effects should map in order"

let test_written_locs () =
  let p =
    Program.make [| Instr.Store (Instr.W32, 1, 2, 0); Instr.Halt |]
  in
  let m = Machine.create ~mem_size:256 p in
  Machine.set_reg m 2 32;
  let r = Option.get (Machine.step m) in
  Alcotest.(check int) "4 bytes written" 4
    (List.length (Extract.written_locs r))

let () =
  Alcotest.run "mitos_flow"
    [
      ("loc", [ Alcotest.test_case "basics" `Quick test_loc_basics ]);
      ( "cfg",
        [
          Alcotest.test_case "diamond" `Quick test_cfg_diamond;
          Alcotest.test_case "loop" `Quick test_cfg_loop;
          Alcotest.test_case "block_of_instr" `Quick test_cfg_block_of_instr;
          Alcotest.test_case "dominators" `Quick test_cfg_dominators;
          Alcotest.test_case "natural loops" `Quick test_cfg_loops;
        ] );
      ( "postdom",
        [
          Alcotest.test_case "diamond join" `Quick test_postdom_diamond;
          Alcotest.test_case "loop" `Quick test_postdom_loop;
          Alcotest.test_case "straight line" `Quick test_postdom_straight_line;
          Alcotest.test_case "jr conservative" `Quick test_postdom_jr_conservative;
          Alcotest.test_case "infinite loop" `Quick test_postdom_infinite_loop;
          Alcotest.test_case "matches set-based reference" `Quick
            test_postdom_matches_reference;
        ] );
      ( "extract",
        [
          Alcotest.test_case "direct flows" `Quick test_extract_direct;
          Alcotest.test_case "load/store" `Quick test_extract_load_store;
          Alcotest.test_case "branch scope" `Quick test_extract_branch_scope;
          Alcotest.test_case "ijump/li" `Quick test_extract_ijump_and_empty;
          Alcotest.test_case "register-only records allocate nothing" `Quick
            test_extract_register_only_allocates_nothing;
          Alcotest.test_case "syscall events" `Quick test_extract_syscall_events;
          Alcotest.test_case "written locs" `Quick test_written_locs;
        ] );
    ]
