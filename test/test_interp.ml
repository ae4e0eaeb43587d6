(* Interpreter tests: semantics of the MiniC abstract machine. *)

open Minic

let run src =
  let p = Typecheck.parse_and_check ~file:"test" src in
  Interp.Machine.run_program p

let check_output name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let code, out = run src in
      Alcotest.(check int) "exit code" 0 code;
      Alcotest.(check string) "output" expected out)

let check_exit name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let code, _ = run src in
      Alcotest.(check int) "exit code" expected code)

let semantics_tests =
  [
    check_exit "return value" "int main(void){ return 42; }" 42;
    check_exit "arith" "int main(void){ return 2 + 3 * 4 - 24 / 4 % 4; }" 12;
    check_output "printf int" {|int main(void){ printf("%d\n", 7 * 6); return 0; }|} "42\n";
    check_output "printf width"
      {|int main(void){ printf("[%5d][%-5d][%05d]\n", 42, 42, 42); return 0; }|}
      "[   42][42   ][00042]\n";
    check_output "printf float"
      {|int main(void){ printf("%.2f %.3e\n", 3.14159, 1234.5); return 0; }|}
      "3.14 1.234e+03\n";
    check_output "printf string char"
      {|int main(void){ printf("%s|%c\n", "hey", 'z'); return 0; }|} "hey|z\n";
    check_exit "int32 wraparound"
      "int main(void){ int x = 2147483647; x = x + 1; return x == -2147483647 - 1; }"
      1;
    check_exit "long no wrap"
      "int main(void){ long x = 2147483647L; x = x + 1; return x > 0; }" 1;
    check_exit "char truncation"
      "int main(void){ char c = 300; return c; }" 44;
    check_exit "short sign extension"
      "int main(void){ short s = -2; int x = s; return x == -2; }" 1;
    check_exit "division" "int main(void){ return -7 / 2 + 10; }" 7;
    check_exit "modulo" "int main(void){ return -7 % 3 + 10; }" 9;
    check_exit "shifts" "int main(void){ int x = 1 << 10; return x >> 4; }" 64;
    check_exit "bitops" "int main(void){ return (12 & 10) | (1 ^ 3); }" 10;
    check_exit "comparisons"
      "int main(void){ return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }"
      4;
    check_exit "short circuit and"
      "int main(void){ int *p = 0; if (p != 0 && *p == 1) return 1; return 2; }" 2;
    check_exit "short circuit or"
      "int main(void){ int x = 1; if (x == 1 || 1 / 0) return 5; return 0; }" 5;
    check_exit "ternary" "int main(void){ int a = 3; return a > 2 ? 10 : 20; }" 10;
    check_exit "float to int trunc"
      "int main(void){ double d = 3.99; return (int)d; }" 3;
    check_exit "int to float"
      "int main(void){ int i = 7; double d = i; return (int)(d / 2.0 * 2.0); }" 7;
    check_exit "float32 rounding"
      "int main(void){ float f = 0.1f; double d = f; return d != 0.1; }" 1;
    check_exit "negative float"
      "int main(void){ double d = -2.5; return (int)fabs(d * 2.0); }" 5;
    check_exit "sqrt" "int main(void){ return (int)sqrt(144.0); }" 12;
  ]

let float_tests =
  [
    (* each operation on [float] operands rounds to [float]: 2^24 + 1
       rounds back to 2^24 twice, where rounding once at the store
       would give 2^24 + 2 *)
    check_output "float rounds after each operation"
      {|int main(void)
{
  float a = 16777216.0f;
  float one = 1.0f;
  float s = a + one + one;
  double d = (double)a + 1.0 + 1.0;
  float t = 0.1f;
  float u = t * t * 10.0f;
  double v = (double)t * (double)t * 10.0;
  printf("%.1f %.1f %d %d\n", s, d, (a + one) == a, ((double)a + 1.0) == (double)a);
  printf("%.17g %.17g\n", u, v);
  return 0;
}|}
      "16777216.0 16777218.0 1 0\n0.10000000894069672 0.10000000298023226\n";
    (* casts, a call's int argument to a double formal, a double result
       stored into int and long, and NaN to int and long (0) *)
    check_output "conversions"
      {|double half(double x) { return x / 2.0; }
int main(void)
{
  int i = -7;
  long l = 9007199254740993L;
  double d = 2.9;
  float f = -2.5f;
  double z = 0.0;
  double n = z / z;
  int a = (int)d;
  int b = (int)f;
  long c = (long)(d * 10000000000.0);
  double e = (double)l;
  float g = (float)i;
  float h = (float)l;
  int k = half(7);
  long m = half(9L);
  short sh = (short)-300.7;
  printf("%d %d %ld %.1f %.1f %.1f\n", a, b, c, e, g, h);
  printf("%d %ld %d %d %ld\n", k, m, sh, (int)n, (long)n);
  return 0;
}|}
      "2 -2 29000000000 9007199254740992.0 -7.0 9007199254740992.0\n\
       3 4 -300 0 0\n";
    check_output "negation and float conditional arms"
      {|int main(void)
{
  double x = 1.5;
  double y = -x;
  float f = 2.25f;
  float g = -f;
  double p = x > 1.0 ? -x * 2.0 : x;
  double q = x < 1.0 ? 1 : x;
  double r = y < 0.0 ? 7 : y;
  float s = x > 0.0 ? f : -1.0f;
  printf("%.2f %.2f %.2f %.2f %.2f %.2f\n", y, g, p, q, r, s);
  return 0;
}|}
      "-1.50 -2.25 -3.00 1.50 7.00 2.25\n";
    (* every activation passes its arguments and result through the
       same call-site and return cells: a cell read after another
       activation reused it would change both sums *)
    check_output "float arguments and returns under recursion"
      {|double fibd(double n)
{
  if (n < 2.0) return n;
  return fibd(n - 1.0) + fibd(n - 2.0);
}
double walk(double x, int k)
{
  double r;
  if (k == 0) return x;
  r = walk(x * 0.5 + 1.0, k - 1);
  return x + r * 2.0;
}
int main(void)
{
  printf("%.1f %.6f\n", fibd(20.0), walk(3.0, 6));
  return 0;
}|}
      "6765.0 261.000000\n";
    check_output "fabs sqrt floor printf %f"
      {|int main(void)
{
  printf("%f %f %f %f\n", fabs(-2.25), sqrt(2.0), floor(-1.5), fabs(3));
  return 0;
}|}
      "2.250000 1.414214 -2.000000 3.000000\n";
    (* C's comparisons: with a NaN operand only != holds *)
    check_output "NaN comparisons follow C"
      {|int main(void)
{
  double z = 0.0;
  double n = z / z;
  printf("%d %d %d %d %d %d\n", n < 1.0, n == n, n != n, 1.0 >= n, n > 1.0, n <= 1.0);
  if (n == n) return 1;
  return 0;
}|}
      "0 0 1 0 0 0\n";
  ]

let pointer_tests =
  [
    check_exit "address of local"
      "int main(void){ int x = 1; int *p = &x; *p = 9; return x; }" 9;
    check_exit "pointer arithmetic"
      "int main(void){ int a[5]; int *p = a; int i; for(i=0;i<5;i++) a[i]=i*i; p = p + 3; return *p; }"
      9;
    check_exit "pointer difference"
      "int main(void){ int a[10]; int *p = &a[7]; int *q = &a[2]; return (int)(p - q); }"
      5;
    check_exit "pointer indexing"
      "int main(void){ int *p = (int *)malloc(sizeof(int) * 4); p[2] = 7; int r = p[2]; free(p); return r; }"
      7;
    check_exit "double pointer"
      "int main(void){ int x = 3; int *p = &x; int **pp = &p; **pp = 8; return x; }"
      8;
    check_exit "struct fields"
      "struct pt { int x; int y; }; int main(void){ struct pt p; p.x = 3; p.y = 4; return p.x * p.x + p.y * p.y; }"
      25;
    check_exit "struct pointer arrow"
      "struct pt { int x; int y; }; int main(void){ struct pt p; struct pt *q = &p; q->x = 5; return p.x; }"
      5;
    check_exit "linked list"
      {|
struct node { int v; struct node *next; };
int main(void) {
  struct node *head = 0;
  int i;
  for (i = 0; i < 5; i++) {
    struct node *n = (struct node *)malloc(sizeof(struct node));
    n->v = i;
    n->next = head;
    head = n;
  }
  int s = 0;
  while (head != 0) { s = s * 10 + head->v; struct node *d = head; head = head->next; free(d); }
  return s;
}|}
      43210;
    check_exit "array of structs"
      "struct s { char tag; int v; }; int main(void){ struct s a[3]; int i; for(i=0;i<3;i++){ a[i].tag = 65 + i; a[i].v = i * 100; } return a[2].v + a[1].tag; }"
      266;
    check_exit "2d array"
      "int main(void){ int m[3][4]; int i; int j; for(i=0;i<3;i++) for(j=0;j<4;j++) m[i][j] = i * 10 + j; return m[2][3]; }"
      23;
    check_exit "global array init"
      "int tab[4] = {1, 2, 3, 4}; int main(void){ return tab[0] + tab[3] * 10; }" 41;
    check_exit "global struct init"
      "struct c { int a; int b; }; struct c g = {7, 9}; int main(void){ return g.a * g.b; }"
      63;
    check_exit "recast short int"
      (* bzip2's zptr idiom: write ints, read shorts (little-endian) *)
      "int main(void){ int *zptr = (int *)malloc(16); zptr[0] = 0x00030002; short *s = (short *)zptr; int r = s[0] * 10 + s[1]; free(zptr); return r; }"
      23;
    check_exit "memset memcpy"
      "int main(void){ char a[8]; char b[8]; memset(a, 7, 8L); memcpy(b, a, 8L); return b[0] + b[7]; }"
      14;
    check_exit "realloc preserves"
      "int main(void){ int *p = (int *)malloc(8); p[0] = 11; p[1] = 22; p = (int *)realloc(p, 64); return p[0] + p[1]; }"
      33;
    check_exit "calloc zeroes"
      "int main(void){ int *p = (int *)calloc(4L, 4L); return p[0] + p[3]; }" 0;
    check_exit "malloc reuse after free"
      {|int main(void){
         int i; int leak = 0;
         for (i = 0; i < 1000; i++) {
           int *p = (int *)malloc(64);
           p[0] = i;
           free(p);
         }
         return leak;
       }|}
      0;
    check_exit "string functions"
      {|int main(void){ return (int)strlen("hello"); }|} 5;
    check_exit "void pointer roundtrip"
      "int main(void){ int x = 5; void *v = &x; int *p = (int *)v; return *p; }" 5;
    check_exit "pointer round trip through long"
      "int main(void){ int a[4]; int *p = &a[2]; long l = (long)p; int *q = (int *)l; *q = 7; return (q == p) * 10 + a[2]; }"
      17;
  ]

let control_tests =
  [
    check_exit "recursion fib"
      "int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void){ return fib(12); }"
      144;
    check_exit "mutual recursion"
      "int odd(int n); int even(int n){ if (n == 0) return 1; return odd(n-1); } int odd(int n){ if (n == 0) return 0; return even(n-1); } int main(void){ return even(10) * 10 + odd(10); }"
      10;
    check_exit "break" "int main(void){ int i; int s = 0; for(i=0;i<100;i++){ if (i == 5) break; s += i; } return s; }" 10;
    check_exit "continue"
      "int main(void){ int i; int s = 0; for(i=0;i<10;i++){ if (i % 2 == 0) continue; s += i; } return s; }"
      25;
    check_exit "while with break"
      "int main(void){ int n = 0; while (1) { n++; if (n >= 7) break; } return n; }" 7;
    check_exit "nested loops"
      "int main(void){ int i; int j; int c = 0; for(i=0;i<4;i++) for(j=0;j<=i;j++) c++; return c; }"
      10;
    check_exit "early return in loop"
      "int find(int *a, int n, int x){ int i; for(i=0;i<n;i++) if (a[i] == x) return i; return -1; } int main(void){ int a[5] = {0, 0, 0, 0, 0}; int i; for(i=0;i<5;i++) a[i] = i * 3; return find(a, 5, 9); }"
      3;
    check_exit "globals across calls"
      "int counter; void tick(void){ counter++; } int main(void){ int i; for(i=0;i<9;i++) tick(); return counter; }"
      9;
    check_exit "exit builtin" "int main(void){ exit(3); return 0; }" 3;
    check_exit "pass by value"
      "void bump(int x){ x = x + 1; } int main(void){ int x = 5; bump(x); return x; }" 5;
    check_exit "pass pointer"
      "void bump(int *x){ *x = *x + 1; } int main(void){ int x = 5; bump(&x); return x; }" 6;
    check_exit "rand deterministic"
      "int main(void){ srand(42); int a = rand(); srand(42); int b = rand(); return a == b; }"
      1;
  ]

let failure_tests =
  let expect_error name src =
    Alcotest.test_case name `Quick (fun () ->
        let p = Typecheck.parse_and_check ~file:name src in
        match Interp.Machine.run_program p with
        | exception Interp.Machine.Runtime_error _ -> ()
        | exception Interp.Memory.Fault _ -> ()
        | code, _ -> Alcotest.failf "expected a runtime error, got exit %d" code)
  in
  [
    expect_error "null deref" "int main(void){ int *p = 0; return *p; }";
    expect_error "division by zero" "int main(void){ int z = 0; return 1 / z; }";
    expect_error "modulo by zero" "int main(void){ int z = 0; return 1 % z; }";
    expect_error "assert failure" "int main(void){ assert(1 == 2); return 0; }";
    expect_error "wild pointer" "int main(void){ int *p = (int *)7; return *p; }";
    (* pointers are immediate ints: 2^62 has no pointer representation *)
    Alcotest.test_case "long beyond 63 bits to pointer" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ long l = 4611686018427387904L; int *q = (int *)l; return q == 0; }"
        in
        match Interp.Machine.run_program p with
        | exception Interp.Machine.Runtime_error _ -> ()
        | code, _ -> Alcotest.failf "expected a runtime error, got exit %d" code);
    Alcotest.test_case "infinite loop fuel" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ int x = 0; while (1) { x++; if (x == -1) break; } return 0; }"
        in
        let m = Interp.Machine.load p in
        m.Interp.Machine.st.Interp.Machine.fuel <- 100_000;
        match Interp.Machine.run m with
        | exception Interp.Machine.Runtime_error _ -> ()
        | code -> Alcotest.failf "expected fuel exhaustion, got exit %d" code);
    expect_error "stack overflow"
      "int deep(int n){ int pad[512]; pad[0] = n; return deep(n + 1) + pad[0]; } int main(void){ return deep(0); }";
  ]

(* `dune runtest` runs in test/ of the build tree, `dune exec` from the
   workspace root. *)
let root = if Sys.file_exists "programs" then ".." else "."

(* A plain run of the program allocates at most 0.05 minor words per
   simulated cycle. *)
let words_per_cycle_case name file source =
  Alcotest.test_case name `Quick (fun () ->
      let p = Typecheck.parse_and_check ~file (source ()) in
      let m = Interp.Machine.load p in
      let w0 = Gc.minor_words () in
      ignore (Interp.Machine.run m);
      let words = Gc.minor_words () -. w0 in
      let cycles = m.Interp.Machine.st.Interp.Machine.cycles in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f minor words <= 0.05 x %d cycles" words cycles)
        true
        (words <= 0.05 *. float_of_int cycles))

(* Cost accounting sanity: cycles and stats move as expected. *)
let accounting_tests =
  [
    Alcotest.test_case "loading is pure" `Quick (fun () ->
        (* a formal's access id is drawn when the program is built:
           loading twice changes no id, and both machines report the
           formal's id for the store that binds its argument *)
        let p =
          Typecheck.parse_and_check
            "int g;\n\
             int f(int x, long y){ g = x; return x + 1; }\n\
             int main(void){ return f(2, 3L) - 3; }"
        in
        let formal_aids () =
          (Option.get (Ast.find_fun p "f")).Ast.fformal_aids
        in
        let aids = formal_aids () in
        let next = p.Ast.next_aid in
        Alcotest.(check int) "one id per formal" 2 (List.length aids);
        let binding_stores () =
          let m = Interp.Machine.load p in
          let seen = ref [] in
          m.Interp.Machine.st.Interp.Machine.observer <-
            Some
              (fun aid kind _ _ ->
                if kind = Visit.Store && List.mem aid aids then
                  seen := aid :: !seen);
          Alcotest.(check int) "exit code" 0 (Interp.Machine.run m);
          List.sort compare !seen
        in
        let first = binding_stores () in
        let second = binding_stores () in
        Alcotest.(check int) "next_aid" next p.Ast.next_aid;
        Alcotest.(check (list int)) "formal ids" aids (formal_aids ());
        Alcotest.(check (list int))
          "binding stores" (List.sort compare aids) first;
        Alcotest.(check (list int)) "same ids on both machines" first second);
    Alcotest.test_case "cycles monotone with work" `Quick (fun () ->
        let cycles src =
          let p = Typecheck.parse_and_check src in
          let m = Interp.Machine.load p in
          ignore (Interp.Machine.run m);
          m.Interp.Machine.st.Interp.Machine.cycles
        in
        let small = cycles "int main(void){ int i; int s=0; for(i=0;i<10;i++) s+=i; return 0; }" in
        let big = cycles "int main(void){ int i; int s=0; for(i=0;i<1000;i++) s+=i; return 0; }" in
        Alcotest.(check bool) "more iterations cost more" true (big > 50 * small / 10));
    Alcotest.test_case "stats counters" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ int a[100]; int i; for(i=0;i<100;i++) a[i] = i; return 0; }"
        in
        let m = Interp.Machine.load p in
        ignore (Interp.Machine.run m);
        let stats = m.Interp.Machine.st.Interp.Machine.stats in
        Alcotest.(check bool) "at least 100 stores" true (stats.Interp.Machine.n_stores >= 100);
        Alcotest.(check bool) "at least 100 branches" true (stats.Interp.Machine.n_branches >= 100));
    Alcotest.test_case "observer sees accesses" `Quick (fun () ->
        (* the last assignment loads on both sides of +, <, && and ?:,
           through an index and through a deref; the (aid, kind,
           cycles) sequence is what the cache model and DOACROSS
           post/wait see, so it must not move *)
        let p =
          Typecheck.parse_and_check
            "int g; int a[4]; int *p; int i; int j; int r;\n\
             int main(void){\n\
            \  g = 5; int x = g;\n\
            \  a[0] = 3; a[1] = 5; a[2] = 7; a[3] = 9; p = &a[1]; i = 2; j = 1;\n\
            \  r = (a[j] + *(p + j) < *(j + p) + a[i] && *p < a[i]) ? a[i] + *p : *(p + i) - a[j];\n\
            \  return x + r;\n\
             }"
        in
        let m = Interp.Machine.load p in
        let st = m.Interp.Machine.st in
        let seen = ref [] in
        st.Interp.Machine.observer <-
          Some
            (fun aid kind addr size ->
              seen := (aid, kind, addr, size, st.Interp.Machine.cycles) :: !seen);
        Alcotest.(check int) "exit" 17 (Interp.Machine.run m);
        let seen = List.rev !seen in
        let stores =
          List.filter (fun (_, k, _, _, _) -> k = Minic.Visit.Store) seen
        in
        let loads = List.filter (fun (_, k, _, _, _) -> k = Minic.Visit.Load) seen in
        Alcotest.(check bool) "stores observed" true (List.length stores >= 2);
        Alcotest.(check bool) "loads observed" true (List.length loads >= 1);
        (* the store to g and the load of g hit the same address *)
        let g_addr = Interp.Machine.global_addr st "g" in
        Alcotest.(check bool) "g's address accessed" true
          (List.exists (fun (_, _, a, _, _) -> a = g_addr) seen);
        let order =
          List.map
            (fun (aid, k, _, _, cycles) ->
              (aid, (if k = Minic.Visit.Load then "L" else "S"), cycles))
            seen
        in
        Alcotest.(check (list (triple int string int)))
          "(aid, kind, cycles) at each observer call"
          [
            (0, "S", 2); (1, "L", 4); (2, "S", 5); (3, "S", 7); (4, "S", 9);
            (5, "S", 11); (6, "S", 13); (7, "S", 15); (8, "S", 17);
            (9, "S", 19); (18, "L", 25); (19, "L", 27); (15, "L", 30);
            (16, "L", 32); (17, "L", 34); (13, "L", 38); (12, "L", 40);
            (14, "L", 42); (10, "L", 44); (11, "L", 46); (22, "L", 49);
            (23, "L", 51); (20, "L", 53); (21, "L", 55); (26, "L", 58);
            (27, "L", 60); (24, "L", 62); (25, "L", 64); (33, "S", 66);
            (35, "L", 69); (34, "L", 70);
          ]
          order);
    Alcotest.test_case "peak memory tracks heap" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ int i; for(i=0;i<10;i++){ char *p = (char *)malloc(1000); free(p); } return 0; }"
        in
        let m = Interp.Machine.load p in
        let before = Interp.Memory.peak_bytes m.Interp.Machine.st.Interp.Machine.mem in
        ignore (Interp.Machine.run m);
        let after = Interp.Memory.peak_bytes m.Interp.Machine.st.Interp.Machine.mem in
        (* free-list reuse keeps peak growth to ~one block, not ten *)
        Alcotest.(check bool) "peak grew modestly" true (after - before < 3000));
    Alcotest.test_case "loop hook fires" `Quick (fun () ->
        let p =
          Typecheck.parse_and_check
            "int main(void){ int i; int s = 0; for(i=0;i<7;i++) s += i; return 0; }"
        in
        let m = Interp.Machine.load p in
        let iters = ref 0 and enters = ref 0 and exits = ref 0 in
        m.Interp.Machine.st.Interp.Machine.loop_hook <-
          Some
            (fun _lid ev _ ->
              match ev with
              | Interp.Machine.Enter -> incr enters
              | Interp.Machine.Iter -> incr iters
              | Interp.Machine.Exit -> incr exits);
        ignore (Interp.Machine.run m);
        Alcotest.(check int) "enter once" 1 !enters;
        (* 7 executed iterations plus the trailing failed-condition test *)
        Alcotest.(check int) "8 iter events" 8 !iters;
        Alcotest.(check int) "exit once" 1 !exits);
    Alcotest.test_case "observer order on doubles" `Quick (fun () ->
        (* [r = a - b]: the subtraction charges its cycles, then loads
           the right operand, then the left *)
        let p =
          Typecheck.parse_and_check
            "double a; double b; double r;\n\
             int main(void){ a = 5.0; b = 2.0; r = a - b; return (int)r; }"
        in
        let m = Interp.Machine.load p in
        let st = m.Interp.Machine.st in
        let name addr =
          List.find
            (fun x -> Interp.Machine.global_addr st x = addr)
            [ "a"; "b"; "r" ]
        in
        let seen = ref [] in
        st.Interp.Machine.observer <-
          Some
            (fun _ kind addr _ ->
              seen :=
                ( name addr,
                  (if kind = Minic.Visit.Load then "L" else "S"),
                  st.Interp.Machine.cycles )
                :: !seen);
        Alcotest.(check int) "exit" 3 (Interp.Machine.run m);
        Alcotest.(check (list (triple string string int)))
          "(global, kind, cycles) at each observer call"
          [
            ("a", "S", 2); ("b", "S", 4); ("b", "L", 8); ("a", "L", 10);
            ("r", "S", 12); ("r", "L", 14);
          ]
          (List.rev !seen));
    (* int/char/short/pointer values are immediate, float and double
       values travel in cells and loop hooks take the iteration as an
       int, so a plain run allocates next to nothing per simulated
       cycle *)
    words_per_cycle_case "md5 allocation per cycle" "md5" (fun () ->
        (Workloads.Registry.find "md5").Workloads.Workload.source);
    words_per_cycle_case "470.lbm allocation per cycle" "470.lbm" (fun () ->
        (Workloads.Registry.find "470.lbm").Workloads.Workload.source);
    words_per_cycle_case "stencil.c allocation per cycle" "stencil.c" (fun () ->
        In_channel.with_open_bin
          (Filename.concat root "examples/programs/stencil.c")
          In_channel.input_all);
  ]

(* qcheck property: interpretation of integer arithmetic expressions
   agrees with a reference big-step evaluator over int64 with 32-bit
   truncation. *)
let gen_arith : (string * int64) QCheck.Gen.t =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then
      let* v = int_range 0 1000 in
      return (string_of_int v, Int64.of_int v)
    else
      let* op = oneofl [ "+"; "-"; "*" ] in
      let* l, lv = gen (n / 2) in
      let* r, rv = gen (n / 2) in
      let f =
        match op with
        | "+" -> Int64.add
        | "-" -> Int64.sub
        | _ -> Int64.mul
      in
      let trunc v = Int64.shift_right (Int64.shift_left v 32) 32 in
      return (Printf.sprintf "(%s %s %s)" l op r, trunc (f lv rv))
  in
  gen 6

let arith_agrees =
  QCheck.Test.make ~count:200 ~name:"interpreted arithmetic agrees with reference"
    (QCheck.make gen_arith ~print:fst)
    (fun (src, expected) ->
      let code, out =
        run (Printf.sprintf "int main(void){ printf(\"%%d\", %s); return 0; }" src)
      in
      code = 0 && Int64.of_string out = expected)

(* qcheck property: the same operators at run time. The operands are
   loads of char/short/int/long variables (globals and register
   locals) and casts, so nothing folds at load time; the reference
   evaluates over int64 with C's promotions and truncation, and
   division or modulo by zero must raise [Runtime_error]. *)
type rkind = RC | RS | RI | RL

let rbits = function RC -> 8 | RS -> 16 | RI -> 32 | RL -> 64

let rtrunc k v =
  let s = 64 - rbits k in
  Int64.shift_right (Int64.shift_left v s) s

let rpromote = function RL -> RL | _ -> RI
let rjoin a b = if rpromote a = RL || rpromote b = RL then RL else RI
let rname = function RC -> "char" | RS -> "short" | RI -> "int" | RL -> "long"

exception Ref_div_zero

(* C source, static kind, and a reference evaluator *)
type rexp = { src : string; kind : rkind; eval : unit -> int64 }

let rvars = [ ("c", RC); ("s", RS); ("i", RI); ("l", RL) ]

(* a C literal for any int64, as a long *)
let rlit v =
  if v = Int64.min_int then "(-9223372036854775807L - 1L)"
  else if v < 0L then Printf.sprintf "(-%LdL)" (Int64.neg v)
  else Printf.sprintf "%LdL" v

let gen_rvalue k : int64 QCheck.Gen.t =
  let open QCheck.Gen in
  let lo = Int64.neg (Int64.shift_left 1L (rbits k - 1)) in
  let hi = Int64.pred (Int64.neg lo) in
  let lo = if k = RL then Int64.min_int else lo in
  let hi = if k = RL then Int64.max_int else hi in
  map (rtrunc k)
    (oneof
       [
         map Int64.of_int (int_range (-20) 20);
         oneofl [ lo; hi; -1L; 0L; 1L; 31L; 32L; 63L ];
         map Int64.of_int int;
         ui64;
       ])

(* values of x0/x1 for each kind x, global (0) and local (1) *)
let gen_renv : (string * rkind * int64) list QCheck.Gen.t =
  let open QCheck.Gen in
  flatten_l
    (List.concat_map
       (fun (x, k) ->
         List.map
           (fun i -> map (fun v -> (Printf.sprintf "%s%d" x i, k, v)) (gen_rvalue k))
           [ 0; 1 ])
       rvars)

let rarith op a b =
  let k = rjoin a.kind b.kind in
  let bits = rbits k in
  let f : int64 -> int64 -> int64 =
    match op with
    | "+" -> Int64.add
    | "-" -> Int64.sub
    | "*" -> Int64.mul
    | "/" -> fun x y -> if y = 0L then raise Ref_div_zero else Int64.div x y
    | "%" -> fun x y -> if y = 0L then raise Ref_div_zero else Int64.rem x y
    | "<<" -> fun x y -> Int64.shift_left x (Int64.to_int y land (bits - 1))
    | ">>" -> fun x y -> Int64.shift_right x (Int64.to_int y land (bits - 1))
    | "&" -> Int64.logand
    | "|" -> Int64.logor
    | _ -> Int64.logxor
  in
  {
    src = Printf.sprintf "(%s %s %s)" a.src op b.src;
    kind = k;
    eval = (fun () -> rtrunc k (f (a.eval ()) (b.eval ())));
  }

let rcompare op a b =
  let test : int -> bool =
    match op with
    | "<" -> fun c -> c < 0
    | ">" -> fun c -> c > 0
    | "<=" -> fun c -> c <= 0
    | ">=" -> fun c -> c >= 0
    | "==" -> fun c -> c = 0
    | _ -> fun c -> c <> 0
  in
  {
    src = Printf.sprintf "(%s %s %s)" a.src op b.src;
    kind = RI;
    eval =
      (fun () -> if test (Int64.compare (a.eval ()) (b.eval ())) then 1L else 0L);
  }

let rlogical op a b =
  {
    src = Printf.sprintf "(%s %s %s)" a.src op b.src;
    kind = RI;
    eval =
      (fun () ->
        let x = a.eval () <> 0L in
        let r = if op = "&&" then x && b.eval () <> 0L else x || b.eval () <> 0L in
        if r then 1L else 0L);
  }

let runary op a =
  match op with
  | "!" ->
    {
      src = Printf.sprintf "(!%s)" a.src;
      kind = RI;
      eval = (fun () -> if a.eval () = 0L then 1L else 0L);
    }
  | "~" ->
    {
      src = Printf.sprintf "(~%s)" a.src;
      kind = a.kind;
      eval = (fun () -> rtrunc (rpromote a.kind) (Int64.lognot (a.eval ())));
    }
  | _ ->
    {
      src = Printf.sprintf "(-%s)" a.src;
      kind = a.kind;
      eval = (fun () -> rtrunc (rpromote a.kind) (Int64.neg (a.eval ())));
    }

let rcast k a =
  {
    src = Printf.sprintf "((%s)%s)" (rname k) a.src;
    kind = k;
    eval = (fun () -> rtrunc k (a.eval ()));
  }

let rvar (x, k, v) = { src = x; kind = k; eval = (fun () -> v) }

let gen_rexp env : rexp QCheck.Gen.t =
  let open QCheck.Gen in
  sized_size (int_range 1 10)
  @@ fix (fun self n ->
         if n = 0 then map rvar (oneofl env)
         else
           frequency
             [
               (1, map rvar (oneofl env));
               ( 4,
                 map3 rarith
                   (oneofl [ "+"; "-"; "*"; "/"; "%"; "<<"; ">>"; "&"; "|"; "^" ])
                   (self (n / 2)) (self (n / 2)) );
               ( 2,
                 map3 rcompare
                   (oneofl [ "<"; ">"; "<="; ">="; "=="; "!=" ])
                   (self (n / 2)) (self (n / 2)) );
               (1, map3 rlogical (oneofl [ "&&"; "||" ]) (self (n / 2)) (self (n / 2)));
               (1, map2 runary (oneofl [ "-"; "~"; "!" ]) (self (n - 1)));
               (1, map2 rcast (oneofl [ RC; RS; RI; RL ]) (self (n - 1)));
             ])

(* the program for an environment and an expression, and whether the
   interpreter agrees with the reference on it *)
let runtime_program env (e : rexp) =
  let globals =
    List.filter_map
      (fun (x, k, _) ->
        if x.[1] = '0' then Some (Printf.sprintf "%s %s;" (rname k) x) else None)
      env
  in
  let inits =
    List.map
      (fun (x, k, v) ->
        if x.[1] = '0' then Printf.sprintf "%s = %s;" x (rlit v)
        else Printf.sprintf "%s %s = %s;" (rname k) x (rlit v))
      env
  in
  Printf.sprintf "%s\nint main(void){ %s\n  printf(\"%%d\", %s);\n  return 0; }"
    (String.concat " " globals) (String.concat " " inits) e.src

let runtime_agrees (env, e) =
  let expected = try Some (e.eval ()) with Ref_div_zero -> None in
  match (run (runtime_program env e), expected) with
  | (code, out), Some v -> code = 0 && Int64.of_string out = v
  | exception Interp.Machine.Runtime_error _ -> expected = None
  | _, None -> false

let runtime_arith_agrees =
  QCheck.Test.make ~count:300
    ~name:"run-time arithmetic on variables agrees with reference"
    (QCheck.make
       QCheck.Gen.(gen_renv >>= fun env -> map (fun e -> (env, e)) (gen_rexp env))
       ~print:(fun (env, e) -> runtime_program env e))
    runtime_agrees

(* The corners the property may not draw: INT_MIN / -1 wraps, LONG_MIN
   / -1 stays LONG_MIN, and a zero divisor raises. *)
let runtime_corner_tests =
  let env =
    [
      ("c0", RC, -128L); ("c1", RC, -1L); ("s0", RS, -32768L); ("s1", RS, 0L);
      ("i0", RI, -2147483648L); ("i1", RI, -1L); ("l0", RL, Int64.min_int);
      ("l1", RL, -1L);
    ]
  in
  let v x = rvar (List.find (fun (y, _, _) -> y = x) env) in
  List.map
    (fun (name, e) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check bool) (runtime_program env e) true (runtime_agrees (env, e))))
    [
      ("INT_MIN / -1", rarith "/" (v "i0") (v "i1"));
      ("INT_MIN % -1", rarith "%" (v "i0") (v "i1"));
      ("LONG_MIN / -1", rarith "/" (v "l0") (v "l1"));
      ("char -128 / -1", rarith "/" (v "c0") (v "c1"));
      ("division by zero", rarith "/" (v "i0") (v "s1"));
      ("modulo by zero", rarith "%" (v "l0") (v "s1"));
    ]

let () =
  Alcotest.run "interp"
    [
      ("semantics", semantics_tests);
      ("floats", float_tests);
      ("pointers", pointer_tests);
      ("control", control_tests);
      ("failures", failure_tests);
      ("accounting", accounting_tests);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest arith_agrees;
          QCheck_alcotest.to_alcotest runtime_arith_agrees;
        ] );
      ("run-time corners", runtime_corner_tests);
    ]
