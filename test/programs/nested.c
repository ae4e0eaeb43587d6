// Parallel loops that nest, for the profiler's pass grouping. Loop 0
// sits in [scale], which loop 1's body calls, and loop 2 sits inside
// loop 1's body. Loops 0 and 2 never run at the same time and share a
// profiling pass; loop 1 contains both, so it gets a pass of its own.
// A single pass over all three would find two loops active at once.
int rows[8][16];
int sums[8];
int tmp[16];

int scale(int r, int k)
{
  int j;
#pragma parallel
  for (j = 0; j < 16; j++) {
    tmp[j] = (r * 16 + j) * k;
    rows[r][j] = tmp[j] + rows[r][j] % 5;
  }
  return tmp[15];
}

int main(void)
{
  int r;
  int j;
  int last = 0;
#pragma parallel
  for (r = 0; r < 8; r++) {
    last = last + scale(r, 3);
    sums[r] = 0;
#pragma parallel
    for (j = 0; j < 16; j++)
      sums[r] = sums[r] + rows[r][j];
  }
  printf("%d %d %d %d\n", sums[0], sums[7], last, tmp[3]);
  return 0;
}
