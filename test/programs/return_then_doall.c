// A DOALL loop that runs after a return left another parallel loop.
// The return must end the first loop for every observer: otherwise
// the domain executor's pre-pass sees the second loop as nested in the
// first and replicates it, and the simulator refuses nested target
// loops. Here the second loop distributes under --exec domains.
int tmp[4];
int out[64];
long b[64];
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
  int i;
  long s = 0;
  int r = f();
#pragma parallel
  for (i = 0; i < 64; i++) b[i] = b[i] + i * 5;
  for (i = 0; i < 64; i++) s = s + b[i];
  printf("%d %d %ld\n", r, tmp[0], s);
  return 0;
}
