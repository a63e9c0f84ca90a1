(* Compiler + VM semantics: every C construct in the subset, executed and
   checked against expected output, in both -O and -g modes. *)

let both name src expected =
  Alcotest.(check string) (name ^ " -O") expected (Util.run src);
  Alcotest.(check string)
    (name ^ " -g") expected
    (Util.run ~mode:Ir.Compile.debug_mode ~optimize:false src)

let test_arith () =
  both "arithmetic"
    {|int main(void) {
  printf("%d %d %d %d %d\n", 7 + 3, 7 - 3, 7 * 3, 7 / 3, 7 % 3);
  printf("%d %d %d\n", -7 / 3, -7 % 3, 1 << 10);
  printf("%d %d %d %d\n", 255 & 15, 240 | 15, 255 ^ 15, ~0);
  printf("%d %d\n", -1 >> 1, 1024 >> 3);
  return 0;
}|}
    "10 4 21 2 1\n-2 -1 1024\n15 255 240 -1\n-1 128\n"

let test_comparisons () =
  both "comparisons"
    {|int main(void) {
  printf("%d%d%d%d%d%d\n", 1 < 2, 2 < 1, 2 <= 2, 3 >= 4, 5 == 5, 5 != 5);
  printf("%d%d\n", -1 < 0, -1 < 1);
  return 0;
}|} "101010\n11\n"

let test_logical () =
  both "short circuit"
    {|int side;
int bump(int v) { side++; return v; }
int main(void) {
  side = 0;
  if (0 && bump(1)) ;
  printf("%d", side);
  if (1 || bump(1)) ;
  printf("%d", side);
  if (1 && bump(1)) ;
  printf("%d", side);
  if (0 || bump(0)) ;
  printf("%d\n", side);
  printf("%d %d\n", !5, !0);
  return 0;
}|} "0012\n0 1\n"

let test_control_flow () =
  both "loops and branches"
    {|int main(void) {
  int i; int sum = 0;
  for (i = 0; i < 10; i++) { if (i == 3) continue; if (i == 8) break; sum += i; }
  printf("%d ", sum);
  i = 0; while (i < 5) i++;
  printf("%d ", i);
  i = 10; do i--; while (i > 5);
  printf("%d\n", i);
  return 0;
}|} "25 5 5\n"

let test_conditional_expr () =
  both "?: and comma"
    {|int main(void) {
  int a = 3; int b = 9;
  printf("%d %d ", a > b ? a : b, a < b ? a : b);
  printf("%d\n", (a = 5, b = a + 1, a + b));
  return 0;
}|} "9 3 11\n"

let test_char_semantics () =
  both "signed char narrowing"
    {|int main(void) {
  char c = 200;  /* wraps to -56 */
  int i = c;
  char d = 'A' + 1;
  printf("%d %c\n", i, d);
  return 0;
}|} "-56 B\n"

let test_widths () =
  both "load/store widths"
    {|short gs; int gi; long gl; char gc;
int main(void) {
  gc = 300;   /* truncates */
  gs = 70000; /* truncates */
  gi = 1 << 20;
  gl = 1;
  gl = gl << 40;
  printf("%d %d %d %ld\n", gc, gs, gi, gl);
  return 0;
}|} "44 4464 1048576 1099511627776\n"

let test_pointers () =
  both "pointer basics"
    {|int main(void) {
  long x = 11; long y = 22;
  long *p = &x;
  *p = 33;
  p = &y;
  *p += 11;
  printf("%ld %ld ", x, y);
  printf("%d\n", p == &y && p != &x);
  return 0;
}|} "33 33 1\n"

let test_pointer_arith () =
  both "pointer arithmetic scaling"
    {|int main(void) {
  long a[5];
  long *p = a;
  long *q = &a[4];
  int i;
  for (i = 0; i < 5; i++) a[i] = i * 100;
  printf("%ld %ld %ld ", *(p + 2), p[3], *--q);
  printf("%ld %d\n", q - p, q > p);
  return 0;
}|} "200 300 300 3 1\n"

let test_strings_and_arrays () =
  both "strings, arrays, globals"
    {|char *msg = "global";
char buf[16];
int main(void) {
  strcpy(buf, msg);
  strcat(buf, "!");
  printf("%s %d %d\n", buf, (int)strlen(buf), strcmp(buf, "global!"));
  printf("%c%c\n", msg[0], "xyz"[1]);
  return 0;
}|} "global! 7 0\ngy\n"

let test_structs () =
  both "structs and unions"
    {|struct point { int x; int y; };
struct rect { struct point a; struct point b; };
union pun { long l; char c[8]; };
int main(void) {
  struct rect r;
  struct rect s;
  union pun u;
  r.a.x = 1; r.a.y = 2; r.b.x = 3; r.b.y = 4;
  s = r;                       /* whole-struct copy */
  s.a.x = 99;
  printf("%d %d %d ", r.a.x, s.a.x, s.b.y);
  u.l = 0x2122232425262728;   /* the VM word is 63 bits wide */
  printf("%c%c\n", u.c[0], u.c[7]);   /* little endian */
  return 0;
}|} "1 99 4 (!\n"

let test_heap_structs () =
  both "heap-allocated linked structures"
    {|struct node { struct node *next; long v; };
int main(void) {
  struct node *head = 0;
  long i; long sum = 0;
  for (i = 0; i < 100; i++) {
    struct node *n = (struct node *)malloc(sizeof(struct node));
    n->v = i; n->next = head; head = n;
  }
  while (head) { sum += head->v; head = head->next; }
  printf("%ld\n", sum);
  return 0;
}|} "4950\n"

let test_recursion () =
  both "recursion"
    {|int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int ack(int m, int n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}
int main(void) { printf("%d %d\n", fib(15), ack(2, 3)); return 0; }|}
    "610 9\n"

let test_increments () =
  both "increment forms"
    {|int main(void) {
  int i = 5; int a;
  a = i++; printf("%d%d ", a, i);
  a = ++i; printf("%d%d ", a, i);
  a = i--; printf("%d%d ", a, i);
  a = --i; printf("%d%d\n", a, i);
  {
    char s[4]; char *p = s; char *q = s;
    s[0] = 'a'; s[1] = 'b'; s[2] = 'c'; s[3] = 0;
    printf("%c%c%c\n", *p++, *++q, *p);
  }
  return 0;
}|} "56 77 76 55\nabb\n"

let test_compound_assign () =
  both "compound assignment"
    {|int main(void) {
  int x = 100;
  x += 5; x -= 3; x *= 2; x /= 4; x %= 13;
  printf("%d ", x);
  x = 3; x <<= 4; x >>= 2; x |= 1; x &= 7; x ^= 2;
  printf("%d\n", x);
  return 0;
}|} "12 7\n"

let test_multidim_arrays () =
  both "2-d arrays"
    {|int m[3][4];
int main(void) {
  int i; int j; int sum = 0;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 4; j++)
      m[i][j] = i * 10 + j;
  for (i = 0; i < 3; i++) sum += m[i][i];
  printf("%d %d\n", sum, m[2][3]);
  return 0;
}|} "33 23\n"

let test_struct_arrays_fields () =
  both "arrays inside structs"
    {|struct s { int tag; int data[4]; };
int main(void) {
  struct s v;
  struct s *p = &v;
  int i;
  v.tag = 7;
  for (i = 0; i < 4; i++) p->data[i] = i * i;
  printf("%d %d %d\n", v.tag, v.data[3], p->data[2]);
  return 0;
}|} "7 9 4\n"

let test_globals_init () =
  both "global initializers"
    {|int a = 40 + 2;
long b = -7;
char c = 'x';
char msg[8] = "hiya";
char *pmsg = "indirect";
int main(void) {
  printf("%d %ld %c %s %s\n", a, b, c, msg, pmsg);
  return 0;
}|} "42 -7 x hiya indirect\n"

let test_builtin_memory () =
  both "memset/memcpy/memmove/realloc"
    {|int main(void) {
  char *a = (char *)malloc(16);
  char *b;
  memset(a, 'z', 15);
  a[15] = 0;
  a[0] = 'A';
  b = (char *)realloc(a, 32);
  b[15] = '!'; b[16] = 0;
  printf("%s\n", b);
  memmove(b + 1, b, 8);
  b[0] = '<';
  printf("%s\n", b);
  return 0;
}|} "Azzzzzzzzzzzzzz!\n<Azzzzzzzzzzzzz!\n"

let test_exit_code () =
  let irp = Util.compile "int main(void) { return 42; }" in
  let r = Machine.Vm.run irp in
  Alcotest.(check int) "exit code" 42 r.Machine.Vm.r_exit;
  let irp2 = Util.compile "int main(void) { exit(7); return 0; }" in
  let r2 = Machine.Vm.run irp2 in
  Alcotest.(check int) "exit()" 7 r2.Machine.Vm.r_exit

let test_faults () =
  let expect_fault name src =
    let irp = Util.compile src in
    match Machine.Vm.run irp with
    | exception Machine.Vm.Fault _ -> ()
    | _ -> Alcotest.failf "%s: expected a fault" name
  in
  expect_fault "null deref" "int main(void) { int *p = 0; return *p; }";
  expect_fault "division by zero" "int main(void) { int z = 0; return 1 / z; }";
  expect_fault "abort" "int main(void) { abort(); return 0; }";
  expect_fault "assert" "int main(void) { assert_true(1 == 2); return 0; }";
  expect_fault "wild store"
    "int main(void) { long *p = (long *)99999999; *p = 1; return 0; }"

let test_stack_overflow () =
  let irp =
    Util.compile "int f(int n) { return f(n + 1); } int main(void) { return f(0); }"
  in
  match Machine.Vm.run irp with
  | exception Machine.Vm.Fault m ->
      Alcotest.(check bool) "stack overflow reported" true
        (String.length m >= 5 && String.sub m 0 5 = "stack")
  | _ -> Alcotest.fail "expected stack overflow"

(* Each domain recycles its last run's arena.  A run that dirties its
   stack and heap and then dies must leave nothing the next run can read:
   a program reading memory it never wrote behaves as on a fresh arena. *)
let dirty_src =
  {|long fill(long *p, long n) {
  long i;
  for (i = 0; i < n; i++) p[i] = 1515870810;
  return n;
}
long deep(long d) {
  long a[64]; long i;
  for (i = 0; i < 64; i++) a[i] = -1;
  if (d == 0) { long *q = 0; return *q; }
  return deep(d - 1) + a[3];
}
int main(void) {
  long k;
  for (k = 0; k < 20; k++) fill((long *)malloc(40000), 5000);
  for (k = 0; k < 50; k++) fill((long *)malloc(96), 12);
  return deep(30);
}|}

let reader_src =
  {|long peek(long d) {
  long a[64]; long i; long s = 0;
  for (i = 0; i < 64; i++) s = s + a[i];
  if (d == 0) return s;
  return s + peek(d - 1);
}
int main(void) {
  long *big = (long *)malloc(120000);
  long *small = (long *)malloc(96);
  long i; long s = 0;
  for (i = 0; i < 15000; i++) s = s + big[i];
  for (i = 0; i < 12; i++) s = s + small[i];
  printf("%ld %ld\n", s, peek(20));
  return 0;
}|}

let test_arena_reuse_invisible () =
  let dirty = Util.compile ~disguise:false dirty_src in
  let reader = Util.compile ~disguise:false reader_src in
  let summary (r : Machine.Vm.result) =
    (r.Machine.Vm.r_output, r.Machine.Vm.r_cycles, r.Machine.Vm.r_instrs)
  in
  let observed = Alcotest.(triple string int int) in
  List.iter
    (fun mode ->
      let name = Gcheap.Heap.gc_mode_name mode in
      let config =
        { (Machine.Vm.default_config ()) with Machine.Vm.vm_gc_mode = mode }
      in
      (* a fresh domain has no recycled arena *)
      let fresh =
        Domain.join
        @@ Domain.spawn (fun () -> summary (Machine.Vm.run ~config reader))
      in
      Alcotest.(check string) (name ^ ": fresh output") "0 0\n"
        (let out, _, _ = fresh in
         out);
      (match Machine.Vm.run ~config dirty with
      | exception Machine.Vm.Fault _ -> ()
      | _ -> Alcotest.failf "%s: the dirty run should fault" name);
      Alcotest.check observed (name ^ ": after a fault") fresh
        (summary (Machine.Vm.run ~config reader));
      (match
         Machine.Vm.run
           ~config:{ config with Machine.Vm.vm_max_instrs = 60_000 }
           dirty
       with
      | exception Machine.Vm.Trap (Machine.Vm.Step_limit, _) -> ()
      | _ -> Alcotest.failf "%s: the dirty run should trap" name);
      Alcotest.check observed (name ^ ": after a trap") fresh
        (summary (Machine.Vm.run ~config reader)))
    [ Gcheap.Heap.Stw; Gcheap.Heap.Gen; Gcheap.Heap.Inc ]

let test_gc_during_run () =
  (* allocation churn forces collections; live data survives *)
  let src =
    {|struct node { struct node *next; long v; };
int main(void) {
  long rep; long total = 0;
  for (rep = 0; rep < 40; rep++) {
    struct node *keep = 0;
    long i;
    for (i = 0; i < 300; i++) {
      struct node *n = (struct node *)malloc(sizeof(struct node));
      n->v = i;
      n->next = i % 50 == 0 ? keep : 0;
      if (i % 50 == 0) keep = n;
    }
    while (keep) { total += keep->v; keep = keep->next; }
  }
  printf("%ld\n", total);
  return 0;
}|}
  in
  let irp = Util.compile src in
  let config =
    { (Machine.Vm.default_config ()) with Machine.Vm.vm_gc_threshold = 8 * 1024 }
  in
  let r = Machine.Vm.run ~config irp in
  Alcotest.(check string) "output" "30000\n" r.Machine.Vm.r_output;
  Alcotest.(check bool) "collections happened" true (r.Machine.Vm.r_gc_count > 3)

let test_rand_deterministic () =
  let src =
    {|int main(void) { srand(7); printf("%d %d %d\n", rand() % 100, rand() % 100, rand() % 100); return 0; }|}
  in
  Alcotest.(check string) "deterministic" (Util.run src) (Util.run src)

let test_cycles_positive () =
  let irp = Util.compile "int main(void) { return 0; }" in
  let r = Machine.Vm.run irp in
  Alcotest.(check bool) "counts" true
    (r.Machine.Vm.r_instrs > 0 && r.Machine.Vm.r_cycles > 0)

let test_two_operand_penalty () =
  (* the same program costs more cycles on a two-operand machine than the
     instruction stream alone explains; compare machine models *)
  let src =
    {|int main(void) { int i; long s = 0; for (i = 0; i < 1000; i++) s += i * 2 + 1; printf("%ld\n", s); return 0; }|}
  in
  let cycles machine =
    let irp = Util.compile ~nregs:machine.Machine.Machdesc.md_regs src in
    let r =
      Machine.Vm.run ~config:(Machine.Vm.default_config ~machine ()) irp
    in
    (r.Machine.Vm.r_cycles, r.Machine.Vm.r_output)
  in
  let c10, o10 = cycles Machine.Machdesc.sparc10 in
  let cp, op = cycles Machine.Machdesc.pentium90 in
  Alcotest.(check string) "same output" o10 op;
  Alcotest.(check bool) "models differ" true (c10 <> cp)

(* --- hand-built IR: the lowered VM's edge cases ------------------------- *)

open Ir.Instr

let func ?(params = []) ?(nreg = 8) name blocks =
  {
    fn_name = name;
    fn_params = params;
    fn_ret_void = false;
    fn_blocks =
      List.map
        (fun (l, instrs, term) -> { b_label = l; b_instrs = instrs; b_term = term })
        blocks;
    fn_nreg = nreg;
    fn_frame = 0;
  }

let program funcs = { p_funcs = funcs; p_statics = Bytes.empty; p_relocs = [] }

let exit_code funcs = (Machine.Vm.run (program funcs)).Machine.Vm.r_exit

let expect_fault name msg funcs =
  match Machine.Vm.run (program funcs) with
  | _ -> Alcotest.failf "%s: ran to completion" name
  | exception Machine.Vm.Fault m -> Alcotest.(check string) name msg m

let test_lazy_unknown_label () =
  let main cond =
    func "main"
      [ (0, [], Br (Imm cond, 1, 99)); (1, [], Ret (Some (Imm 7))) ]
  in
  Alcotest.(check int) "untaken arm to an unknown label runs" 7
    (exit_code [ main 1 ]);
  expect_fault "taken arm to an unknown label" "jump to unknown label L99"
    [ main 0 ]

let test_user_function_shadows_builtin () =
  let abs = func "abs" ~params:[ 1 ] [ (0, [], Ret (Some (Imm 42))) ] in
  let main =
    func "main"
      [ (0, [ Push (Imm (-5)); Call (Some 1, "abs", 1) ], Ret (Some (Reg 1))) ]
  in
  Alcotest.(check int) "the user's abs is called" 42 (exit_code [ abs; main ]);
  Alcotest.(check int) "without it, the builtin" 5 (exit_code [ main ])

let test_arity_mismatch () =
  let f = func "f" ~params:[ 1 ] [ (0, [], Ret (Some (Reg 1))) ] in
  let main =
    func "main"
      [
        ( 0,
          [ Push (Imm 1); Push (Imm 2); Call (Some 1, "f", 2) ],
          Ret (Some (Reg 1)) );
      ]
  in
  expect_fault "two arguments to a one-parameter function"
    "arity mismatch calling f" [ f; main ]

(* Store [v] at [width] into a fresh object and load it back. *)
let round_trip width v =
  exit_code
    [
      func "main"
        [
          ( 0,
            [
              Push (Imm 16);
              Call (Some 1, "malloc", 1);
              Store (width, Imm v, Reg 1, Imm 0);
              Load (width, 2, Reg 1, Imm 0);
            ],
            Ret (Some (Reg 2)) );
        ];
    ]

let test_narrow_widths () =
  List.iter
    (fun (width, v, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "%d-byte store/load of %#x" (bytes_of_width width) v)
        expected (round_trip width v))
    [
      (W1, 0x7f, 0x7f);
      (W1, 0x80, -0x80);
      (W1, 0x1ff, -1);
      (W2, 0x7fff, 0x7fff);
      (W2, 0x8000, -0x8000);
      (W2, 0x1_2345, 0x2345);
      (W4, 0x7fff_ffff, 0x7fff_ffff);
      (W4, 0x8000_0000, -0x8000_0000);
      (W4, 0x1_8000_0001, -0x7fff_ffff);
      (W8, 0x1234_5678_9abc, 0x1234_5678_9abc);
      (W8, -2, -2);
      (W8, max_int, max_int);
      (W8, min_int, min_int);
    ]

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "short circuit" `Quick test_logical;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "?: and comma" `Quick test_conditional_expr;
    Alcotest.test_case "char semantics" `Quick test_char_semantics;
    Alcotest.test_case "widths" `Quick test_widths;
    Alcotest.test_case "pointers" `Quick test_pointers;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arith;
    Alcotest.test_case "strings and arrays" `Quick test_strings_and_arrays;
    Alcotest.test_case "structs and unions" `Quick test_structs;
    Alcotest.test_case "heap structures" `Quick test_heap_structs;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "increments" `Quick test_increments;
    Alcotest.test_case "compound assignment" `Quick test_compound_assign;
    Alcotest.test_case "2-d arrays" `Quick test_multidim_arrays;
    Alcotest.test_case "struct arrays" `Quick test_struct_arrays_fields;
    Alcotest.test_case "global initializers" `Quick test_globals_init;
    Alcotest.test_case "memory builtins" `Quick test_builtin_memory;
    Alcotest.test_case "exit codes" `Quick test_exit_code;
    Alcotest.test_case "faults" `Quick test_faults;
    Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
    Alcotest.test_case "gc during run" `Quick test_gc_during_run;
    Alcotest.test_case "deterministic rand" `Quick test_rand_deterministic;
    Alcotest.test_case "cycle counting" `Quick test_cycles_positive;
    Alcotest.test_case "machine models differ" `Quick test_two_operand_penalty;
    Alcotest.test_case "unknown label faults only when taken" `Quick
      test_lazy_unknown_label;
    Alcotest.test_case "user function shadows a builtin" `Quick
      test_user_function_shadows_builtin;
    Alcotest.test_case "arity mismatch faults" `Quick test_arity_mismatch;
    Alcotest.test_case "narrow loads sign-extend" `Quick test_narrow_widths;
    Alcotest.test_case "arena reuse is invisible" `Quick
      test_arena_reuse_invisible;
  ]
