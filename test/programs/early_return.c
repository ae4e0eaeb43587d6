// A return inside a parallel loop leaves the loop: the profiler must
// see the loop end there. [tmp[0]] is written and read in every
// iteration, but main reads it after f returns from iteration 40, so
// the loop's last value is live-out: tmp[0] is downwards-exposed and
// shared. Treating the rest of the program as inside the loop would
// classify it private, and the simulated parallel run would then print
// another thread's copy.
int tmp[4];
int out[64];
int f(void)
{
  int i;
#pragma parallel
  for (i = 0; i < 64; i++) {
    tmp[0] = i * 3;
    out[i] = tmp[0] + 1;
    if (i == 40) return i;
  }
  return 0;
}
int main(void)
{
  int r = f();
  printf("%d %d %d %d\n", r, tmp[0], out[40], out[41]);
  return 0;
}
