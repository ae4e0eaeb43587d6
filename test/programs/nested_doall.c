int rows[8][16];
int sums[8];
int main(void)
{
  int r;
  int j;
  for (r = 0; r < 8; r++)
    for (j = 0; j < 16; j++)
      rows[r][j] = r * 16 + j;
#pragma parallel
  for (r = 0; r < 8; r++) {
    sums[r] = 0;
#pragma parallel
    for (j = 0; j < 16; j++)
      sums[r] = sums[r] + rows[r][j];
  }
  printf("%d %d\n", sums[0], sums[7]);
  return 0;
}
