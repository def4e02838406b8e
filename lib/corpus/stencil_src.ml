(** 2D and 3D stencil CUDA kernels, the open-source representatives used
    in the paper's Figure 6: GPU code coverage is measured by running the
    kernels on the CPU (the cuda4cpu approach) under the same coverage
    tooling as CPU code.

    The kernels follow the standard halo-guarded structure; the driver's
    test launches exercise the interior and most — not all — boundary
    combinations, so statement and branch coverage stay below 100%, which
    is the figure's observation. *)

let extra_types = []

let stencil2d_cu =
  {|// stencil2d.cu
__global__ void stencil2d_kernel(float* input, float* output, int width,
                                 int height, float c0, float c1) {
  int idx = blockIdx.x * blockDim.x + threadIdx.x;
  int x = idx % width;
  int y = idx / width;
  if (y >= height) {
    return;
  }
  if (x == 0 || x == width - 1 || y == 0 || y == height - 1) {
    output[idx] = input[idx];
    return;
  }
  float center = input[idx];
  float north = input[idx - width];
  float south = input[idx + width];
  float west = input[idx - 1];
  float east = input[idx + 1];
  float result = c0 * center + c1 * (north + south + west + east);
  if (result > 100.0) {
    result = 100.0;
  }
  if (result < 0.0 - 100.0) {
    result = 0.0 - 100.0;
  }
  output[idx] = result;
}

void run_stencil2d(float* host_in, float* host_out, int width, int height,
                   int iterations) {
  int n = width * height;
  float* dev_in;
  float* dev_out;
  cudaMalloc((void**)&dev_in, n * sizeof(float));
  cudaMalloc((void**)&dev_out, n * sizeof(float));
  cudaMemcpy(dev_in, host_in, n * sizeof(float), 1);
  for (int it = 0; it < iterations; ++it) {
    stencil2d_kernel<<<(n + 63) / 64, 64>>>(dev_in, dev_out, width, height,
                                            0.6, 0.1);
    float* tmp = dev_in;
    dev_in = dev_out;
    dev_out = tmp;
  }
  cudaMemcpy(host_out, dev_in, n * sizeof(float), 2);
  cudaFree(dev_in);
  cudaFree(dev_out);
}
|}

let stencil3d_cu =
  {|// stencil3d.cu
__global__ void stencil3d_kernel(float* input, float* output, int nx, int ny,
                                 int nz, float c0, float c1) {
  int idx = blockIdx.x * blockDim.x + threadIdx.x;
  int plane = nx * ny;
  int z = idx / plane;
  int rem = idx % plane;
  int y = rem / nx;
  int x = rem % nx;
  if (z >= nz) {
    return;
  }
  if (x == 0 || x == nx - 1) {
    output[idx] = input[idx];
    return;
  }
  if (y == 0 || y == ny - 1) {
    output[idx] = input[idx];
    return;
  }
  if (z == 0 || z == nz - 1) {
    output[idx] = input[idx];
    return;
  }
  float acc = c0 * input[idx];
  acc += c1 * input[idx - 1];
  acc += c1 * input[idx + 1];
  acc += c1 * input[idx - nx];
  acc += c1 * input[idx + nx];
  acc += c1 * input[idx - plane];
  acc += c1 * input[idx + plane];
  if (acc != acc) {
    acc = 0.0;
  }
  output[idx] = acc;
}

void run_stencil3d(float* host_in, float* host_out, int nx, int ny, int nz) {
  int n = nx * ny * nz;
  float* dev_in;
  float* dev_out;
  cudaMalloc((void**)&dev_in, n * sizeof(float));
  cudaMalloc((void**)&dev_out, n * sizeof(float));
  cudaMemcpy(dev_in, host_in, n * sizeof(float), 1);
  stencil3d_kernel<<<(n + 31) / 32, 32>>>(dev_in, dev_out, nx, ny, nz, 0.4,
                                          0.1);
  cudaMemcpy(host_out, dev_out, n * sizeof(float), 2);
  cudaFree(dev_in);
  cudaFree(dev_out);
}
|}

let driver_cu =
  {|// stencil_main.cu
int main() {
  int width = 8;
  int height = 6;
  int n2 = width * height;
  float* in2 = (float*)malloc(n2 * sizeof(float));
  float* out2 = (float*)malloc(n2 * sizeof(float));
  for (int i = 0; i < n2; ++i) {
    in2[i] = 0.5 * (float)(i % 13);
  }
  run_stencil2d(in2, out2, width, height, 2);
  float check2 = 0.0;
  for (int i = 0; i < n2; ++i) {
    check2 += out2[i];
  }
  printf("stencil2d checksum %f\n", check2);

  int nx = 5;
  int ny = 4;
  int nz = 3;
  int n3 = nx * ny * nz;
  float* in3 = (float*)malloc(n3 * sizeof(float));
  float* out3 = (float*)malloc(n3 * sizeof(float));
  for (int i = 0; i < n3; ++i) {
    in3[i] = 0.25 * (float)(i % 7);
  }
  run_stencil3d(in3, out3, nx, ny, nz);
  float check3 = 0.0;
  for (int i = 0; i < n3; ++i) {
    check3 += out3[i];
  }
  printf("stencil3d checksum %f\n", check3);
  free(in2);
  free(out2);
  free(in3);
  free(out3);
  return 0;
}
|}

let files =
  [
    ("stencil/stencil2d.cu", stencil2d_cu);
    ("stencil/stencil3d.cu", stencil3d_cu);
    ("stencil/stencil_main.cu", driver_cu);
  ]

let parse_all () = Cfront.Parser.parse_files ~extra_types files

let measured_files = List.filter (fun (p, _) -> p <> "stencil/stencil_main.cu") files

let entry = "main"
