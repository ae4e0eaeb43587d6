// rows: a DOALL loop that fills a private scratch row and then writes
// one disjoint row of the output. Chosen as the store-heavy
// counterpart to md5: the domain executor distributes the loop, and
// every iteration logs about 510 non-stack stores (255 to the
// privatized scratch row, 255 to its output row) that the merge must
// replay, so write-log and merge costs are visible. Integers only.
int input[1024];
int scratch[256];
int out[64][256];

int main(void)
{
  int i;
  for (i = 0; i < 1024; i++) input[i] = (i * 7919 + 13) % 1000;
  int r;
#pragma parallel
  for (r = 0; r < 64; r++) {
    int j;
    for (j = 0; j < 255; j++)
      scratch[j] = input[(r * 37 + j * 5) % 1024] * (r + 1) + j;
    for (j = 0; j < 255; j++)
      out[r][j] = scratch[j] ^ scratch[254 - j];
  }
  int sum = 0;
  for (r = 0; r < 64; r++)
    for (i = 0; i < 255; i++)
      sum = (sum * 31 + out[r][i]) % 1000003;
  printf("rows %d\n", sum);
  return 0;
}
